(* Tests for the process-set kernel: bitset algebra and quorum sets. *)
open Procset

let pset = Alcotest.testable Pset.pp Pset.equal

(* -------------------------------------------------------------- *)
(* Unit tests                                                     *)
(* -------------------------------------------------------------- *)

let test_empty_full () =
  Alcotest.(check int) "empty cardinal" 0 (Pset.cardinal Pset.empty);
  Alcotest.(check int) "full 5 cardinal" 5 (Pset.cardinal (Pset.full ~n:5));
  Alcotest.(check bool) "empty is_empty" true (Pset.is_empty Pset.empty);
  Alcotest.(check bool)
    "full not empty" false
    (Pset.is_empty (Pset.full ~n:3));
  Alcotest.(check (list int)) "full 3 elements" [ 0; 1; 2 ]
    (Pset.elements (Pset.full ~n:3))

let test_add_remove_mem () =
  let s = Pset.of_list [ 1; 3; 5 ] in
  Alcotest.(check bool) "mem 3" true (Pset.mem 3 s);
  Alcotest.(check bool) "not mem 2" false (Pset.mem 2 s);
  Alcotest.(check pset) "remove 3" (Pset.of_list [ 1; 5 ]) (Pset.remove 3 s);
  Alcotest.(check pset) "add 2" (Pset.of_list [ 1; 2; 3; 5 ]) (Pset.add 2 s);
  Alcotest.(check pset) "add idempotent" s (Pset.add 3 s);
  Alcotest.(check pset) "remove absent" s (Pset.remove 2 s)

let test_set_algebra () =
  let a = Pset.of_list [ 0; 1; 2 ] and b = Pset.of_list [ 2; 3 ] in
  Alcotest.(check pset) "union" (Pset.of_list [ 0; 1; 2; 3 ]) (Pset.union a b);
  Alcotest.(check pset) "inter" (Pset.singleton 2) (Pset.inter a b);
  Alcotest.(check pset) "diff" (Pset.of_list [ 0; 1 ]) (Pset.diff a b);
  Alcotest.(check bool) "intersects" true (Pset.intersects a b);
  Alcotest.(check bool)
    "disjoint" true
    (Pset.disjoint (Pset.of_list [ 0; 1 ]) (Pset.of_list [ 2; 3 ]));
  Alcotest.(check bool) "subset" true (Pset.subset (Pset.singleton 1) a);
  Alcotest.(check bool) "not subset" false (Pset.subset b a)

let test_min_elt () =
  Alcotest.(check int) "min of {3,5,7}" 3
    (Pset.min_elt (Pset.of_list [ 5; 3; 7 ]));
  Alcotest.(check int) "min singleton" 0 (Pset.min_elt (Pset.singleton 0));
  Alcotest.check_raises "min of empty" Not_found (fun () ->
      ignore (Pset.min_elt Pset.empty))

let test_majority_complement () =
  Alcotest.(check bool)
    "3 of 5 is majority" true
    (Pset.is_majority ~n:5 (Pset.of_list [ 0; 1; 2 ]));
  Alcotest.(check bool)
    "2 of 4 is not majority" false
    (Pset.is_majority ~n:4 (Pset.of_list [ 0; 1 ]));
  Alcotest.(check pset) "complement"
    (Pset.of_list [ 2; 3 ])
    (Pset.complement ~n:4 (Pset.of_list [ 0; 1 ]))

let test_subsets () =
  let subs = Pset.subsets (Pset.of_list [ 0; 1; 2 ]) in
  Alcotest.(check int) "2^3 subsets" 8 (List.length subs);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        "subset of universe" true
        (Pset.subset s (Pset.of_list [ 0; 1; 2 ])))
    subs

let test_bounds () =
  Alcotest.check_raises "full too large"
    (Invalid_argument "Pset.full: n = 63 out of [0, 62]") (fun () ->
      ignore (Pset.full ~n:63));
  Alcotest.check_raises "singleton negative"
    (Invalid_argument "Pset: process id -1 out of [0, 62)") (fun () ->
      ignore (Pset.singleton (-1)))

let test_qset_basics () =
  let q1 = Pset.of_list [ 0; 1 ] and q2 = Pset.of_list [ 2; 3 ] in
  let s = Qset.of_list [ q1; q2; q1 ] in
  Alcotest.(check int) "dedup" 2 (Qset.cardinal s);
  Alcotest.(check bool) "mem" true (Qset.mem q1 s);
  Alcotest.(check bool)
    "disjoint pair found" true
    (Qset.exists_disjoint_pair (Qset.singleton q1) (Qset.singleton q2));
  Alcotest.(check bool)
    "no disjoint pair" false
    (Qset.exists_disjoint_pair (Qset.singleton q1)
       (Qset.singleton (Pset.of_list [ 1; 2 ])))

(* -------------------------------------------------------------- *)
(* Property tests                                                 *)
(* -------------------------------------------------------------- *)

let gen_pset n =
  QCheck.map
    ~rev:(fun s ->
      List.fold_left (fun acc p -> acc lor (1 lsl p)) 0 (Pset.elements s))
    (fun bits ->
      List.fold_left
        (fun acc p -> if bits land (1 lsl p) <> 0 then Pset.add p acc else acc)
        Pset.empty
        (List.init n (fun i -> i)))
    QCheck.(int_bound ((1 lsl n) - 1))

let n_univ = 10

let props =
  let ps = gen_pset n_univ in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"union commutative" ~count:500
         QCheck.(pair ps ps)
         (fun (a, b) -> Pset.equal (Pset.union a b) (Pset.union b a)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"inter commutative" ~count:500
         QCheck.(pair ps ps)
         (fun (a, b) -> Pset.equal (Pset.inter a b) (Pset.inter b a)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"union associative" ~count:500
         QCheck.(triple ps ps ps)
         (fun (a, b, c) ->
           Pset.equal
             (Pset.union a (Pset.union b c))
             (Pset.union (Pset.union a b) c)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"inter distributes over union" ~count:500
         QCheck.(triple ps ps ps)
         (fun (a, b, c) ->
           Pset.equal
             (Pset.inter a (Pset.union b c))
             (Pset.union (Pset.inter a b) (Pset.inter a c))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"diff is inter with complement" ~count:500
         QCheck.(pair ps ps)
         (fun (a, b) ->
           Pset.equal (Pset.diff a b)
             (Pset.inter a (Pset.complement ~n:n_univ b))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"intersects iff inter nonempty" ~count:500
         QCheck.(pair ps ps)
         (fun (a, b) ->
           Bool.equal (Pset.intersects a b)
             (not (Pset.is_empty (Pset.inter a b)))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"subset iff diff empty" ~count:500
         QCheck.(pair ps ps)
         (fun (a, b) ->
           Bool.equal (Pset.subset a b) (Pset.is_empty (Pset.diff a b))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"cardinal union + cardinal inter" ~count:500
         QCheck.(pair ps ps)
         (fun (a, b) ->
           Pset.cardinal (Pset.union a b) + Pset.cardinal (Pset.inter a b)
           = Pset.cardinal a + Pset.cardinal b));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"elements sorted and roundtrip" ~count:500 ps
         (fun a ->
           let elts = Pset.elements a in
           List.sort Int.compare elts = elts
           && Pset.equal (Pset.of_list elts) a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fold counts cardinal" ~count:500 ps (fun a ->
           Pset.fold (fun _ acc -> acc + 1) a 0 = Pset.cardinal a));
  ]

(* -------------------------------------------------------------- *)
(* Quorum families: the intersection-algebra law suite             *)
(* -------------------------------------------------------------- *)

(* (n, family) pairs over small universes; subsets of the universe
   are enumerable (2^n), so the laws quantify exhaustively over
   quorums inside each sampled family. *)
let arb_sized_family =
  let gen =
    QCheck.Gen.(
      int_range 2 6 >>= fun n ->
      Tutil.family_spec_gen ~n >|= fun spec -> (n, spec))
  in
  let print (n, spec) =
    Printf.sprintf "n=%d %s" n (Tutil.print_family_spec spec)
  in
  let shrink (n, spec) =
    QCheck.Iter.(Tutil.shrink_family_spec spec >|= fun s -> (n, s))
  in
  QCheck.make ~print ~shrink gen

let quorums_of fam ~n ~within =
  List.filter (Quorum_family.is_quorum fam ~n) (Pset.subsets within)

let fam_props =
  let mk name count prop =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name ~count arb_sized_family prop)
  in
  [
    (* The law Sigma legality rests on: every shipped family is
       uniform, so any two quorums of the universe intersect. *)
    mk "any two quorums intersect" 150 (fun (n, spec) ->
        let fam = Tutil.spec_family spec in
        let qs = quorums_of fam ~n ~within:(Pset.full ~n) in
        List.for_all
          (fun q1 -> List.for_all (fun q2 -> Pset.intersects q1 q2) qs)
          qs);
    (* Monotonicity — what Sigma-nu+'s owner-addition and the A_nuc
       quorum guard lean on. *)
    mk "supersets of quorums are quorums" 300 (fun (n, spec) ->
        let fam = Tutil.spec_family spec in
        List.for_all
          (fun q ->
            if not (Quorum_family.is_quorum fam ~n q) then true
            else
              List.for_all
                (fun extra ->
                  Quorum_family.is_quorum fam ~n (Pset.union q extra))
                (Pset.subsets (Pset.full ~n)))
          (Pset.subsets (Pset.full ~n)));
    (* min_quorums is exactly the set of minimal quorums, each of
       which loses quorumhood on removing any single member. *)
    mk "min_quorums are exactly the minimal quorums" 150 (fun (n, spec) ->
        let fam = Tutil.spec_family spec in
        let mins = Quorum_family.min_quorums fam ~n ~within:(Pset.full ~n) in
        List.for_all (Quorum_family.is_min_quorum fam ~n) mins
        && List.for_all
             (fun q ->
               Bool.equal
                 (Quorum_family.is_min_quorum fam ~n q)
                 (List.exists (Pset.equal q) mins))
             (Pset.subsets (Pset.full ~n))
        && List.for_all
             (fun q ->
               Pset.fold
                 (fun p acc ->
                   acc
                   && not (Quorum_family.is_quorum fam ~n (Pset.remove p q)))
                 q true)
             mins);
    (* validate's liveness clause is is_quorum on the live set
       (monotonicity makes the two formulations coincide). *)
    mk "validate Ok iff live set is a quorum" 300 (fun (n, spec) ->
        let fam = Tutil.spec_family spec in
        List.for_all
          (fun live ->
            Bool.equal
              (Result.is_ok (Quorum_family.validate fam ~n ~live))
              (Quorum_family.is_quorum fam ~n live))
          (Pset.subsets (Pset.full ~n)));
    (* resilience = largest f with every f-crash surviving: pinned
       exhaustively against the definition. *)
    mk "resilience bound is exact" 100 (fun (n, spec) ->
        let fam = Tutil.spec_family spec in
        let res = Quorum_family.resilience fam ~n in
        let survives crashed =
          Quorum_family.is_quorum fam ~n
            (Pset.diff (Pset.full ~n) crashed)
        in
        let all_of_size k =
          List.filter
            (fun s -> Pset.cardinal s = k)
            (Pset.subsets (Pset.full ~n))
        in
        res >= 0
        && List.for_all survives (all_of_size res)
        && (res = n || not (List.for_all survives (all_of_size (res + 1)))));
    (* grow_quorum: a random grow either lands inside the pool on a
       real quorum, or proves the pool holds none. *)
    mk "grow_quorum sound and complete" 200 (fun (n, spec) ->
        let fam = Tutil.spec_family spec in
        List.for_all
          (fun pool ->
            let g =
              Draw.make ~stream:0 (Hashtbl.hash spec) n (Hashtbl.hash pool)
            in
            match Quorum_family.grow_quorum fam ~n g ~pool with
            | Some q ->
              Pset.subset q pool && Quorum_family.is_quorum fam ~n q
            | None -> not (Quorum_family.is_quorum fam ~n pool))
          (Pset.subsets (Pset.full ~n)));
    (* Satellite: Qset.exists_disjoint_pair is the exact negation of
       pairwise intersection, pinned over the quorums each shipped
       family induces on two random pools (and, for uniform
       families, equivalent to the intersection law above). *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"exists_disjoint_pair negates pairwise \
                               intersection (family quorums)"
         ~count:200
         QCheck.(pair arb_sized_family (pair (gen_pset 6) (gen_pset 6)))
         (fun ((n, spec), (pool_a, pool_b)) ->
           let fam = Tutil.spec_family spec in
           let clip pool = Pset.inter pool (Pset.full ~n) in
           let qs pool =
             Quorum_family.min_quorums fam ~n ~within:(clip pool)
           in
           let qa = qs pool_a and qb = qs pool_b in
           QCheck.assume (qa <> [] && qb <> []);
           Bool.equal
             (Qset.exists_disjoint_pair (Qset.of_list qa) (Qset.of_list qb))
             (not
                (List.for_all
                   (fun q1 ->
                     List.for_all (fun q2 -> Pset.intersects q1 q2) qb)
                   qa))));
    (* Same law over arbitrary (non-quorum) set collections — the
       negation is exact for any pair of Qsets, not just uniform
       families' (where the disjoint branch is unreachable). *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"exists_disjoint_pair negates pairwise \
                               intersection (arbitrary qsets)"
         ~count:500
         QCheck.(
           pair
             (small_list (gen_pset n_univ))
             (small_list (gen_pset n_univ)))
         (fun (la, lb) ->
           let a = Qset.of_list la and b = Qset.of_list lb in
           Bool.equal
             (Qset.exists_disjoint_pair a b)
             (not
                (List.for_all
                   (fun q1 -> List.for_all (Pset.intersects q1) lb)
                   la))));
    (* Degeneracy: all-ones weighted votes are exactly majority. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"all-ones weighted = majority" ~count:100
         QCheck.(int_range 1 8)
         (fun n ->
           let ones =
             Quorum_family.weighted ~weights:(List.init n (fun _ -> 1))
           in
           List.for_all
             (fun s ->
               Bool.equal
                 (Quorum_family.is_quorum ones ~n s)
                 (Quorum_family.is_quorum Quorum_family.majority ~n s))
             (Pset.subsets (Pset.full ~n))));
    (* Grid duality: transposing the tiling permutes the quorums. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"grid transpose duality" ~count:100
         QCheck.(pair (int_range 1 3) (int_range 1 3))
         (fun (r, c) ->
           let n = r * c in
           let g = Quorum_family.grid ~rows:r ~cols:c () in
           let gt = Quorum_family.grid ~rows:c ~cols:r () in
           let transpose s =
             Pset.fold
               (fun p acc -> Pset.add ((p mod c * r) + (p / c)) acc)
               s Pset.empty
           in
           List.for_all
             (fun s ->
               Bool.equal
                 (Quorum_family.is_quorum g ~n s)
                 (Quorum_family.is_quorum gt ~n (transpose s)))
             (Pset.subsets (Pset.full ~n))));
  ]

(* -------------------------------------------------------------- *)
(* Draw: the oracles' counter-based generator                      *)
(* -------------------------------------------------------------- *)

(* Three keys' first draws. A changed word here moves every seeded
   history. *)
let test_draw_golden () =
  List.iter
    (fun ((stream, seed, p, t), expect) ->
      let g = Draw.make ~stream seed p t in
      let got = List.init (List.length expect) (fun _ -> Draw.bits g) in
      Alcotest.(check (list int))
        (Printf.sprintf "stream %d, key (%d, %d, %d)" stream seed p t)
        expect got)
    [
      ( (0, 0, 0, 0),
        [ 490390194660447557; 4101211519109016660; 1437098433946598653 ] );
      ( (2, 1, 3, 100),
        [ 3560995621504008544; 4461208444813183989; 4154705198010767964 ] );
      ( (6, 123_456, 61, 1 lsl 40),
        [ 708754807539242884; 3199072673163686853; 1109786645400502925 ] );
    ]

(* Pearson's statistic of [counts] against a uniform spread. *)
let chi2_uniform counts =
  let total = Array.fold_left ( + ) 0 counts in
  let e = float_of_int total /. float_of_int (Array.length counts) in
  Array.fold_left
    (fun acc c -> acc +. (((float_of_int c -. e) ** 2.) /. e))
    0. counts

(* Upper 0.1 % points of chi-square with 1..6 degrees of freedom. *)
let chi2_crit = [| 10.83; 13.82; 16.27; 18.47; 20.52; 22.46 |]

(* [int g k] is uniform for each small bound, over 60,000 (p, t) keys
   (the first draw of each). *)
let test_draw_int_uniform () =
  for k = 2 to 7 do
    let counts = Array.make k 0 in
    for p = 0 to 5 do
      for t = 0 to 9_999 do
        let v = Draw.int (Draw.make ~stream:k 7 p t) k in
        counts.(v) <- counts.(v) + 1
      done
    done;
    let x2 = chi2_uniform counts in
    Alcotest.(check bool)
      (Printf.sprintf "int g %d: chi2 %.2f < %.2f" k x2 chi2_crit.(k - 2))
      true
      (x2 < chi2_crit.(k - 2))
  done

(* Each of the 62 members is in a random subset of the full universe
   with frequency 1/2, along t for a fixed p and along p (as a key
   coordinate, 10,000 values) for a fixed t. *)
let test_draw_subset_bits () =
  let all = Pset.full ~n:Pset.max_size in
  let along name key =
    let counts = Array.make Pset.max_size 0 in
    let samples = 10_000 in
    for i = 0 to samples - 1 do
      Pset.iter
        (fun q -> counts.(q) <- counts.(q) + 1)
        (Pset.random_subset (key i) all)
    done;
    Array.iteri
      (fun q c ->
        let f = float_of_int c /. float_of_int samples in
        if f < 0.48 || f > 0.52 then
          Alcotest.failf "%s: member %d in %.4f of subsets" name q f)
      counts
  in
  along "along t, p = 3" (fun t -> Draw.make ~stream:2 5 3 t);
  along "along p, t = 40" (fun p -> Draw.make ~stream:2 5 p 40)

(* [pair omega sigma_nu_plus] queries both oracles at one (seed, p, t):
   the pre-stabilization leader must carry no information about
   quorum membership. At n = 4 a shared word would make the leader
   ([word mod 4]) fix members 0 and 1 outright. Pearson's test of
   independence on each member's (leader, member?) table, 3 degrees of
   freedom. *)
let test_draw_leader_quorum_independent () =
  let n = 4 in
  let pattern = Sim.Failure_pattern.failure_free ~n in
  let stab_time = 1_000_000 in
  let omega = Fd.Oracle.omega ~seed:9 ~stab_time pattern in
  let sigma = Fd.Oracle.sigma_nu_plus ~seed:9 ~stab_time pattern in
  let table = Array.make_matrix n (2 * n) 0 in
  for p = 0 to n - 1 do
    for t = 0 to 4_999 do
      match (omega.Fd.Oracle.query p t, sigma.Fd.Oracle.query p t) with
      | Sim.Fd_value.Leader l, Sim.Fd_value.Quorum q ->
        for r = 0 to n - 1 do
          (* the pivot (p0) and the owner are always members *)
          if r <> 0 && r <> p then begin
            let cell = (2 * l) + if Pset.mem r q then 1 else 0 in
            table.(r).(cell) <- table.(r).(cell) + 1
          end
        done
      | _ -> Alcotest.fail "unexpected detector values"
    done
  done;
  for r = 1 to n - 1 do
    let cells = table.(r) in
    let total = Array.fold_left ( + ) 0 cells in
    let row l = cells.(2 * l) + cells.((2 * l) + 1) in
    let col m =
      List.fold_left (fun acc l -> acc + cells.((2 * l) + m)) 0
        (List.init n Fun.id)
    in
    let x2 = ref 0. in
    for l = 0 to n - 1 do
      for m = 0 to 1 do
        let e = float_of_int (row l * col m) /. float_of_int total in
        x2 := !x2 +. (((float_of_int cells.((2 * l) + m) -. e) ** 2.) /. e)
      done
    done;
    Alcotest.(check bool)
      (Printf.sprintf "member %d vs leader: chi2 %.2f < %.2f" r !x2
         chi2_crit.(2))
      true (!x2 < chi2_crit.(2))
  done

(* The dense history of the served detector pair, under a pattern
   with two crashes and a stabilization time inside the horizon. *)
let served_pair () =
  let pattern = Sim.Failure_pattern.make ~n:5 ~crashes:[ (1, 30); (3, 60) ] in
  Fd.Oracle.pair
    (Fd.Oracle.omega ~seed:3 ~stab_time:120 pattern)
    (Fd.Oracle.sigma_nu_plus ~seed:3 ~stab_time:120 pattern)

let history_string h =
  String.concat ";"
    (List.map
       (fun (p, t, v) -> Format.asprintf "%d@%d=%a" p t Sim.Fd_value.pp v)
       (Fd.History.all_samples h))

(* Queries are pure: two domains splitting the (p, t) grid between
   them sample the same history as one domain walking it in order. *)
let test_draw_two_domains () =
  let o = served_pair () in
  let horizon = 400 and n = 5 in
  let seq = Fd.Oracle.history ~horizon ~n o in
  let grid = Array.make_matrix n (horizon + 1) Sim.Fd_value.Unit in
  let half parity () =
    for t = horizon downto 0 do
      if t mod 2 = parity then
        for p = 0 to n - 1 do
          grid.(p).(t) <- o.Fd.Oracle.query p t
        done
    done
  in
  let d0 = Domain.spawn (half 0) and d1 = Domain.spawn (half 1) in
  Domain.join d0;
  Domain.join d1;
  let par = Fd.History.of_fun ~n ~horizon (fun p t -> grid.(p).(t)) in
  Alcotest.(check string) "same samples" (history_string seq)
    (history_string par)

(* One digest of a dense history of [pair omega sigma_nu_plus]: a
   change in draw order or stream assignment fails here first. *)
let test_draw_history_digest () =
  let h = Fd.Oracle.history ~horizon:200 ~n:5 (served_pair ()) in
  Alcotest.(check string) "history MD5" "6f4125ffba6996bc699d0f41043a38b9"
    (Digest.to_hex (Digest.string (history_string h)))

(* Typed errors and the --quorum spellings. *)
let test_family_errors () =
  (match
     Quorum_family.validate (Quorum_family.grid ~rows:2 ~cols:2 ()) ~n:5
       ~live:(Pset.full ~n:5)
   with
  | Error (Quorum_family.Bad_shape { family; n; _ }) ->
    Alcotest.(check string) "bad shape family" "grid:2x2" family;
    Alcotest.(check int) "bad shape n" 5 n
  | Ok () | Error (Quorum_family.No_live_quorum _) ->
    Alcotest.fail "ragged grid must be Bad_shape");
  (match
     Quorum_family.validate Quorum_family.majority ~n:5
       ~live:(Pset.of_list [ 0; 1 ])
   with
  | Error (Quorum_family.No_live_quorum { family; n; live }) ->
    Alcotest.(check string) "no live family" "majority" family;
    Alcotest.(check int) "no live n" 5 n;
    Alcotest.(check pset) "no live set" (Pset.of_list [ 0; 1 ]) live
  | Ok () | Error (Quorum_family.Bad_shape _) ->
    Alcotest.fail "minority live set must be No_live_quorum");
  Alcotest.(check bool)
    "error_to_string nonempty" true
    (String.length
       (Quorum_family.error_to_string
          (Quorum_family.Bad_shape { family = "x"; n = 1; reason = "r" }))
    > 0)

let test_family_spellings () =
  List.iter
    (fun (s, expect) ->
      match Quorum_family.of_string s with
      | Ok fam ->
        Alcotest.(check string)
          (Printf.sprintf "of_string %s" s)
          expect (Quorum_family.name fam)
      | Error e -> Alcotest.failf "of_string %s: %s" s e)
    [
      ("majority", "majority");
      ("super:1", "super:1");
      ("weighted:2,1,1", "weighted:2,1,1");
      ("grid:2x2", "grid:2x2");
      ("grid", "grid");
    ];
  (match Quorum_family.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus spelling must be rejected");
  match Quorum_family.of_string "super:x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "super:x must be rejected"

let () =
  Alcotest.run "procset"
    [
      ( "pset-unit",
        [
          Alcotest.test_case "empty and full" `Quick test_empty_full;
          Alcotest.test_case "add remove mem" `Quick test_add_remove_mem;
          Alcotest.test_case "set algebra" `Quick test_set_algebra;
          Alcotest.test_case "min_elt" `Quick test_min_elt;
          Alcotest.test_case "majority and complement" `Quick
            test_majority_complement;
          Alcotest.test_case "subsets" `Quick test_subsets;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "qset basics" `Quick test_qset_basics;
        ] );
      ("pset-properties", props);
      ( "quorum-family-unit",
        [
          Alcotest.test_case "typed errors" `Quick test_family_errors;
          Alcotest.test_case "--quorum spellings" `Quick
            test_family_spellings;
        ] );
      ("quorum-family-laws", fam_props);
      ( "draw",
        [
          Alcotest.test_case "golden words" `Quick test_draw_golden;
          Alcotest.test_case "int uniform for k = 2..7" `Quick
            test_draw_int_uniform;
          Alcotest.test_case "random_subset bit frequencies" `Quick
            test_draw_subset_bits;
          Alcotest.test_case "leader independent of quorum" `Quick
            test_draw_leader_quorum_independent;
          Alcotest.test_case "two domains sample one history" `Quick
            test_draw_two_domains;
          Alcotest.test_case "served pair history digest" `Quick
            test_draw_history_digest;
        ] );
    ]
