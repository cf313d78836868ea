(* Tests for the failure-detector framework: every oracle construction
   is re-validated against the independent property checkers, and the
   checkers themselves are exercised on hand-crafted invalid
   histories. *)
open Procset

let horizon = 150
let stab = 60

(* A pool of failure patterns covering every fault count, including
   the minority-correct regimes Sigma-nu was invented for. *)
let patterns =
  [
    Sim.Failure_pattern.make ~n:4 ~crashes:[];
    Sim.Failure_pattern.make ~n:4 ~crashes:[ (3, 20) ];
    Sim.Failure_pattern.make ~n:4 ~crashes:[ (2, 10); (3, 30) ];
    Sim.Failure_pattern.make ~n:4 ~crashes:[ (1, 5); (2, 10); (3, 30) ];
    Sim.Failure_pattern.make ~n:5 ~crashes:[ (0, 7); (4, 40) ];
    Sim.Failure_pattern.make ~n:6
      ~crashes:[ (1, 3); (2, 14); (4, 25); (5, 55) ];
  ]

let check_ok name = function
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "%s: %a" name Fd.Check.pp_violation v

let history_of oracle pattern =
  Fd.Oracle.history ~horizon ~n:(Sim.Failure_pattern.n pattern) oracle

(* -------------------------------------------------------------- *)
(* Oracles satisfy their specifications                            *)
(* -------------------------------------------------------------- *)

let over_patterns_and_seeds f =
  List.iteri
    (fun i pattern -> List.iter (fun seed -> f i pattern seed) [ 0; 1; 17 ])
    patterns

let test_omega_valid () =
  over_patterns_and_seeds (fun i pattern seed ->
      List.iter
        (fun prestab ->
          let o = Fd.Oracle.omega ~seed ~stab_time:stab ~prestab pattern in
          check_ok
            (Printf.sprintf "omega pattern %d seed %d" i seed)
            (Fd.Check.omega ~max_stab:o.Fd.Oracle.stab_time pattern
               (history_of o pattern)))
        [ Fd.Oracle.Omega_random; Fd.Oracle.Omega_faulty_first ])

let test_sigma_valid () =
  over_patterns_and_seeds (fun i pattern seed ->
      let o = Fd.Oracle.sigma ~seed ~stab_time:stab pattern in
      check_ok
        (Printf.sprintf "sigma pattern %d seed %d" i seed)
        (Fd.Check.sigma ~max_stab:o.Fd.Oracle.stab_time pattern
           (history_of o pattern)))

(* A pattern with no correct process has no pivot. Omega refuses it
   when built; the pivot-anchored oracles build, and fail at their
   first query that needs the pivot. Sigma-nu's arbitrary faulty
   quorums never need it. *)
let test_all_faulty_pivot () =
  let pattern =
    Sim.Failure_pattern.make ~n:3 ~crashes:[ (0, 5); (1, 6); (2, 7) ]
  in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s should raise Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "omega" (fun () -> Fd.Oracle.omega pattern);
  let sigma = Fd.Oracle.sigma pattern in
  raises "sigma query" (fun () -> sigma.Fd.Oracle.query 0 0);
  let split =
    Fd.Oracle.sigma_nu_plus ~faulty_mode:Fd.Oracle.Faulty_split pattern
  in
  ignore (split.Fd.Oracle.query 1 3);
  let arbitrary = Fd.Oracle.sigma_nu pattern in
  for t = 0 to 20 do
    ignore (arbitrary.Fd.Oracle.query (t mod 3) t)
  done

let test_sigma_nu_valid () =
  over_patterns_and_seeds (fun i pattern seed ->
      List.iter
        (fun mode ->
          let o =
            Fd.Oracle.sigma_nu ~seed ~stab_time:stab ~faulty_mode:mode pattern
          in
          check_ok
            (Printf.sprintf "sigma_nu pattern %d seed %d" i seed)
            (Fd.Check.sigma_nu ~max_stab:o.Fd.Oracle.stab_time pattern
               (history_of o pattern)))
        [ Fd.Oracle.Faulty_arbitrary; Fd.Oracle.Faulty_split ])

let test_sigma_nu_plus_valid () =
  over_patterns_and_seeds (fun i pattern seed ->
      List.iter
        (fun mode ->
          let o =
            Fd.Oracle.sigma_nu_plus ~seed ~stab_time:stab ~faulty_mode:mode
              pattern
          in
          check_ok
            (Printf.sprintf "sigma_nu_plus pattern %d seed %d" i seed)
            (Fd.Check.sigma_nu_plus ~max_stab:o.Fd.Oracle.stab_time pattern
               (history_of o pattern)))
        [ Fd.Oracle.Faulty_arbitrary; Fd.Oracle.Faulty_split ])

let test_perfect_valid () =
  List.iteri
    (fun i pattern ->
      let o = Fd.Oracle.perfect pattern in
      check_ok
        (Printf.sprintf "perfect pattern %d" i)
        (Fd.Check.sigma ~max_stab:o.Fd.Oracle.stab_time pattern
           (history_of o pattern));
      let o' = Fd.Oracle.perfect_plus pattern in
      check_ok
        (Printf.sprintf "perfect_plus pattern %d" i)
        (Fd.Check.sigma_nu_plus ~max_stab:o'.Fd.Oracle.stab_time pattern
           (history_of o' pattern)))
    patterns

let test_eventually_strong_valid () =
  over_patterns_and_seeds (fun i pattern seed ->
      let o = Fd.Oracle.eventually_strong ~seed ~stab_time:stab pattern in
      check_ok
        (Printf.sprintf "eventually_strong pattern %d seed %d" i seed)
        (Fd.Check.eventually_strong ~max_stab:o.Fd.Oracle.stab_time pattern
           (history_of o pattern)))

let test_eventually_strong_rejects () =
  let pattern = Sim.Failure_pattern.make ~n:3 ~crashes:[ (2, 5) ] in
  (* permanently suspecting every correct process breaks weak accuracy *)
  let h =
    Fd.History.of_fun ~n:3 ~horizon:40 (fun p _ ->
        Sim.Fd_value.Suspects (Pset.add 2 (Pset.singleton ((p + 1) mod 2))))
  in
  (match Fd.Check.eventually_strong ~max_stab:10 pattern h with
  | Error v ->
    Alcotest.(check string) "weak accuracy violated" "eventually-strong"
      v.Fd.Check.property
  | Ok () -> Alcotest.fail "must reject universal suspicion");
  (* never suspecting the crashed process breaks strong completeness *)
  let h' =
    Fd.History.of_fun ~n:3 ~horizon:40 (fun _ _ ->
        Sim.Fd_value.Suspects Pset.empty)
  in
  match Fd.Check.eventually_strong ~max_stab:10 pattern h' with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must reject missing suspicion of the crashed"

(* Sigma implies Sigma-nu: the pivot sigma histories also pass the
   nonuniform checker. *)
let test_sigma_is_sigma_nu () =
  List.iteri
    (fun i pattern ->
      let o = Fd.Oracle.sigma ~stab_time:stab pattern in
      check_ok
        (Printf.sprintf "sigma-as-sigma_nu pattern %d" i)
        (Fd.Check.sigma_nu ~max_stab:o.Fd.Oracle.stab_time pattern
           (history_of o pattern)))
    patterns

(* The split Sigma-nu oracle genuinely exploits the nonuniform
   weakening: with at least one faulty process whose quorums live on
   the faulty side, the full (uniform) Sigma intersection FAILS. *)
let test_split_sigma_nu_is_not_sigma () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[ (2, 40); (3, 40) ] in
  let o =
    Fd.Oracle.sigma_nu ~stab_time:stab ~faulty_mode:Fd.Oracle.Faulty_split
      pattern
  in
  match Fd.Check.sigma ~max_stab:o.Fd.Oracle.stab_time pattern
          (history_of o pattern)
  with
  | Ok () ->
    Alcotest.fail "split sigma_nu unexpectedly satisfies uniform Sigma"
  | Error v ->
    Alcotest.(check string)
      "violation is about intersection" "intersection" v.Fd.Check.property

let test_pair_oracle () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[ (3, 20) ] in
  let o =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~stab_time:stab pattern)
      (Fd.Oracle.sigma_nu_plus ~stab_time:stab pattern)
  in
  let h = history_of o pattern in
  check_ok "pair fst is omega"
    (Fd.Check.omega ~max_stab:o.Fd.Oracle.stab_time pattern
       (Fd.History.project_fst h));
  check_ok "pair snd is sigma_nu_plus"
    (Fd.Check.sigma_nu_plus ~max_stab:o.Fd.Oracle.stab_time pattern
       (Fd.History.project_snd h))

(* -------------------------------------------------------------- *)
(* Checkers reject invalid histories                               *)
(* -------------------------------------------------------------- *)

let quorum l = Sim.Fd_value.Quorum (Pset.of_list l)

let expect_violation name property = function
  | Ok _ -> Alcotest.failf "%s: expected a %s violation" name property
  | Error v ->
    Alcotest.(check string)
      (name ^ ": violated property") property v.Fd.Check.property

let test_reject_wrong_leader () =
  let pattern = Sim.Failure_pattern.make ~n:3 ~crashes:[ (2, 5) ] in
  (* correct processes end up trusting the faulty process 2 *)
  let h =
    Fd.History.of_fun ~n:3 ~horizon:40 (fun _ _ -> Sim.Fd_value.Leader 2)
  in
  expect_violation "faulty leader" "omega" (Fd.Check.omega_settles pattern h)

let test_reject_split_leaders () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let h =
    Fd.History.of_fun ~n:4 ~horizon:40 (fun p _ ->
        Sim.Fd_value.Leader (p mod 2))
  in
  expect_violation "split leaders" "omega" (Fd.Check.omega_settles pattern h)

let test_reject_disjoint_quorums () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let h =
    Fd.History.of_fun ~n:4 ~horizon:20 (fun p _ ->
        if p < 2 then quorum [ 0; 1 ] else quorum [ 2; 3 ])
  in
  expect_violation "disjoint quorums" "intersection"
    (Fd.Check.intersection ~uniform:true pattern h);
  (* all four processes are correct here, so even the nonuniform
     checker rejects *)
  expect_violation "disjoint quorums (nonuniform)"
    "nonuniform-intersection"
    (Fd.Check.intersection ~uniform:false pattern h)

let test_nonuniform_accepts_faulty_disjoint () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[ (2, 9); (3, 9) ] in
  let h =
    Fd.History.of_fun ~n:4 ~horizon:20 (fun p _ ->
        if p < 2 then quorum [ 0; 1 ] else quorum [ 2; 3 ])
  in
  (* the same history is fine for Sigma-nu once 2 and 3 are faulty *)
  check_ok "nonuniform ignores faulty quorums"
    (Fd.Check.intersection ~uniform:false pattern h);
  expect_violation "uniform still rejects" "intersection"
    (Fd.Check.intersection ~uniform:true pattern h)

let test_reject_incomplete () =
  let pattern = Sim.Failure_pattern.make ~n:3 ~crashes:[ (2, 5) ] in
  (* p0 keeps the faulty process in its quorum forever *)
  let h =
    Fd.History.of_fun ~n:3 ~horizon:50 (fun _ _ -> quorum [ 0; 1; 2 ])
  in
  match Fd.Check.completeness pattern h with
  | Ok s ->
    Alcotest.(check int) "violating until the end" 50 s;
    expect_violation "completeness bound" "completeness"
      (Fd.Check.sigma ~max_stab:40 pattern h)
  | Error v -> Alcotest.failf "unexpected error: %a" Fd.Check.pp_violation v

let test_reject_empty_quorum () =
  let pattern = Sim.Failure_pattern.make ~n:3 ~crashes:[] in
  let h = Fd.History.of_fun ~n:3 ~horizon:5 (fun _ _ -> quorum []) in
  expect_violation "empty quorum" "intersection"
    (Fd.Check.intersection ~uniform:true pattern h)

let test_reject_missing_self () =
  let pattern = Sim.Failure_pattern.make ~n:3 ~crashes:[] in
  ignore pattern;
  let h = Fd.History.of_fun ~n:3 ~horizon:5 (fun _ _ -> quorum [ 0 ]) in
  expect_violation "self-inclusion" "self-inclusion" (Fd.Check.self_inclusion h)

let test_reject_conditional_nonintersection () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[ (3, 5) ] in
  (* p3's quorum {2,3} misses p0's quorum {0,1}, yet contains the
     correct process 2 *)
  let h =
    Fd.History.of_fun ~n:4 ~horizon:10 (fun p _ ->
        if p = 3 then quorum [ 2; 3 ] else quorum [ 0; 1 ])
  in
  expect_violation "conditional nonintersection"
    "conditional-nonintersection"
    (Fd.Check.conditional_nonintersection pattern h)

let test_reject_wrong_range () =
  let pattern = Sim.Failure_pattern.make ~n:3 ~crashes:[] in
  let h = Fd.History.of_fun ~n:3 ~horizon:3 (fun _ _ -> Sim.Fd_value.Unit) in
  (match Fd.Check.intersection ~uniform:true pattern h with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-quorum values must be rejected");
  match Fd.Check.omega_settles pattern h with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-leader values must be rejected"

(* Exact stabilization-time accounting: the checkers report the last
   violating sample, not merely a boolean. *)
let test_exact_stab_times () =
  let pattern = Sim.Failure_pattern.make ~n:3 ~crashes:[ (2, 5) ] in
  (* leader wrong until time 12 inclusive, settled afterwards *)
  let h =
    Fd.History.of_fun ~n:3 ~horizon:40 (fun _ t ->
        Sim.Fd_value.Leader (if t <= 12 then 1 else 0))
  in
  (match Fd.Check.omega_settles pattern h with
  | Ok s -> Alcotest.(check int) "omega stab time" 12 s
  | Error v -> Alcotest.failf "unexpected: %a" Fd.Check.pp_violation v);
  (* quorums contain the faulty process until time 20 inclusive *)
  let h' =
    Fd.History.of_fun ~n:3 ~horizon:40 (fun _ t ->
        quorum (if t <= 20 then [ 0; 2 ] else [ 0; 1 ]))
  in
  match Fd.Check.completeness pattern h' with
  | Ok s -> Alcotest.(check int) "completeness stab time" 20 s
  | Error v -> Alcotest.failf "unexpected: %a" Fd.Check.pp_violation v

(* Oracles clamp their stabilization to after the last crash. *)
let test_oracle_stab_clamped () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[ (3, 90) ] in
  let o = Fd.Oracle.omega ~stab_time:5 pattern in
  Alcotest.(check bool) "clamped past the last crash" true
    (o.Fd.Oracle.stab_time > 90);
  check_ok "clamped oracle still valid"
    (Fd.Check.omega ~max_stab:o.Fd.Oracle.stab_time pattern
       (history_of o pattern))

(* Nested pairs project correctly. *)
let test_nested_pairs () =
  let pattern = Sim.Failure_pattern.make ~n:3 ~crashes:[] in
  let o =
    Fd.Oracle.pair
      (Fd.Oracle.pair
         (Fd.Oracle.omega ~stab_time:10 pattern)
         (Fd.Oracle.sigma ~stab_time:10 pattern))
      (Fd.Oracle.sigma_nu ~stab_time:10 pattern)
  in
  let h = history_of o pattern in
  let inner = Fd.History.project_fst h in
  check_ok "fst.fst is omega"
    (Fd.Check.omega ~max_stab:15 pattern (Fd.History.project_fst inner));
  check_ok "fst.snd is sigma"
    (Fd.Check.sigma ~max_stab:15 pattern (Fd.History.project_snd inner));
  check_ok "snd is sigma_nu"
    (Fd.Check.sigma_nu ~max_stab:15 pattern (Fd.History.project_snd h))

(* -------------------------------------------------------------- *)
(* History container                                               *)
(* -------------------------------------------------------------- *)

let test_history_container () =
  let samples =
    [ (0, 3, quorum [ 0 ]); (0, 1, quorum [ 0; 1 ]); (1, 2, quorum [ 1 ]) ]
  in
  let h = Fd.History.of_samples ~n:2 samples in
  Alcotest.(check int) "last time" 3 (Fd.History.last_time h);
  (match Fd.History.samples_of h 0 with
  | [ (1, _); (3, _) ] -> ()
  | _ -> Alcotest.fail "samples of p0 should be time-sorted");
  (* duplicate agreeing samples collapse *)
  let h' =
    Fd.History.of_samples ~n:2
      [ (0, 1, quorum [ 0 ]); (0, 1, quorum [ 0 ]) ]
  in
  Alcotest.(check int) "dedup" 1 (List.length (Fd.History.samples_of h' 0));
  (* conflicting duplicates are rejected *)
  (try
     ignore
       (Fd.History.of_samples ~n:2
          [ (0, 1, quorum [ 0 ]); (0, 1, quorum [ 1 ]) ]);
     Alcotest.fail "conflicting samples must raise"
   with Invalid_argument _ -> ());
  (* projections *)
  let hp =
    Fd.History.of_samples ~n:2
      [ (0, 0, Sim.Fd_value.Pair (Sim.Fd_value.Leader 1, quorum [ 0 ])) ]
  in
  (match Fd.History.samples_of (Fd.History.project_fst hp) 0 with
  | [ (0, Sim.Fd_value.Leader 1) ] -> ()
  | _ -> Alcotest.fail "project_fst");
  match Fd.History.samples_of (Fd.History.project_snd hp) 0 with
  | [ (0, Sim.Fd_value.Quorum _) ] -> ()
  | _ -> Alcotest.fail "project_snd"

let prop_oracle_deterministic =
  (* patterns from the shared Tutil generator, not one pinned schedule *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"oracles are deterministic in (pattern, seed, p, t)" ~count:200
       QCheck.(
         pair
           (Tutil.arb_universe ~max_n:6 ~crash_window:50 ())
           (triple int small_nat (int_bound 100)))
       (fun (u, (seed, p, t)) ->
         let pattern = Tutil.universe_pattern u in
         let p = p mod u.Tutil.u_n in
         let o1 = Fd.Oracle.sigma_nu_plus ~seed ~stab_time:stab pattern in
         let o2 = Fd.Oracle.sigma_nu_plus ~seed ~stab_time:stab pattern in
         Sim.Fd_value.equal (o1.Fd.Oracle.query p t) (o2.Fd.Oracle.query p t)))

(* -------------------------------------------------------------- *)
(* Family-parameterized oracles                                    *)
(* -------------------------------------------------------------- *)

(* The families exercised against each pattern of the pool: the
   built-ins at every size that fits, via the shared tutil spec
   generator's instances. A family participates in a pattern only
   when [validate] accepts it for the pattern's correct set — the
   same gate the oracles themselves apply. *)
let families_for ~n =
  [
    Quorum_family.majority;
    Quorum_family.supermajority ~f:1;
    Quorum_family.weighted ~weights:(List.init n (fun i -> 1 + (i mod 2)));
    Quorum_family.grid ();
  ]

let test_family_oracles_valid () =
  over_patterns_and_seeds (fun i pattern seed ->
      let n = Sim.Failure_pattern.n pattern in
      let correct = Sim.Failure_pattern.correct pattern in
      List.iter
        (fun fam ->
          let fits =
            Result.is_ok (Quorum_family.validate fam ~n ~live:correct)
          in
          let expect_oracle mk check_name checker =
            match mk () with
            | Ok o ->
              if not fits then
                Alcotest.failf "%s pattern %d: oracle accepted a family \
                                validate rejects"
                  check_name i;
              check_ok
                (Printf.sprintf "%s[%s] pattern %d seed %d" check_name
                   (Quorum_family.name fam) i seed)
                (checker ~max_stab:o.Fd.Oracle.stab_time pattern
                   (history_of o pattern))
            | Error _ ->
              if fits then
                Alcotest.failf "%s[%s] pattern %d: typed error on a \
                                family validate accepts"
                  check_name (Quorum_family.name fam) i
          in
          expect_oracle
            (fun () -> Fd.Oracle.sigma_family ~seed ~stab_time:stab fam pattern)
            "sigma_family" Fd.Check.sigma;
          expect_oracle
            (fun () ->
              Fd.Oracle.sigma_nu_family ~seed ~stab_time:stab fam pattern)
            "sigma_nu_family" Fd.Check.sigma_nu;
          expect_oracle
            (fun () ->
              Fd.Oracle.sigma_nu_plus_family ~seed ~stab_time:stab fam pattern)
            "sigma_nu_plus_family" Fd.Check.sigma_nu_plus)
        (families_for ~n))

let test_family_oracle_typed_errors () =
  let minority =
    Sim.Failure_pattern.make ~n:4 ~crashes:[ (2, 10); (3, 30) ]
  in
  (match Fd.Oracle.sigma_family Quorum_family.majority minority with
  | Error (Quorum_family.No_live_quorum _) -> ()
  | Ok _ -> Alcotest.fail "majority family must reject minority-correct"
  | Error (Quorum_family.Bad_shape _) ->
    Alcotest.fail "expected No_live_quorum, got Bad_shape");
  let n5 = Sim.Failure_pattern.make ~n:5 ~crashes:[] in
  match Fd.Oracle.sigma_family (Quorum_family.grid ~rows:2 ~cols:2 ()) n5 with
  | Error (Quorum_family.Bad_shape _) -> ()
  | Ok _ -> Alcotest.fail "2x2 grid must reject n=5"
  | Error (Quorum_family.No_live_quorum _) ->
    Alcotest.fail "expected Bad_shape, got No_live_quorum"

let () =
  Alcotest.run "fd"
    [
      ( "oracles-satisfy-specs",
        [
          Alcotest.test_case "omega" `Quick test_omega_valid;
          Alcotest.test_case "sigma (pivot)" `Quick test_sigma_valid;
          Alcotest.test_case "all-faulty pattern has no pivot" `Quick
            test_all_faulty_pivot;
          Alcotest.test_case "sigma_nu (both faulty modes)" `Quick
            test_sigma_nu_valid;
          Alcotest.test_case "sigma_nu_plus (both faulty modes)" `Quick
            test_sigma_nu_plus_valid;
          Alcotest.test_case "perfect and perfect_plus" `Quick
            test_perfect_valid;
          Alcotest.test_case "eventually strong (<>S)" `Quick
            test_eventually_strong_valid;
          Alcotest.test_case "eventually strong rejections" `Quick
            test_eventually_strong_rejects;
          Alcotest.test_case "sigma implies sigma_nu" `Quick
            test_sigma_is_sigma_nu;
          Alcotest.test_case "split sigma_nu is not sigma" `Quick
            test_split_sigma_nu_is_not_sigma;
          Alcotest.test_case "pair projections" `Quick test_pair_oracle;
          prop_oracle_deterministic;
        ] );
      ( "family-oracles",
        [
          Alcotest.test_case "families satisfy their class specs" `Quick
            test_family_oracles_valid;
          Alcotest.test_case "typed errors" `Quick
            test_family_oracle_typed_errors;
        ] );
      ( "checkers-reject-invalid",
        [
          Alcotest.test_case "faulty eventual leader" `Quick
            test_reject_wrong_leader;
          Alcotest.test_case "split leaders" `Quick test_reject_split_leaders;
          Alcotest.test_case "disjoint quorums" `Quick
            test_reject_disjoint_quorums;
          Alcotest.test_case "nonuniform tolerates faulty disjoint" `Quick
            test_nonuniform_accepts_faulty_disjoint;
          Alcotest.test_case "incomplete quorums" `Quick test_reject_incomplete;
          Alcotest.test_case "empty quorum" `Quick test_reject_empty_quorum;
          Alcotest.test_case "missing self" `Quick test_reject_missing_self;
          Alcotest.test_case "conditional nonintersection" `Quick
            test_reject_conditional_nonintersection;
          Alcotest.test_case "wrong range" `Quick test_reject_wrong_range;
        ] );
      ( "checker-precision",
        [
          Alcotest.test_case "exact stabilization times" `Quick
            test_exact_stab_times;
          Alcotest.test_case "oracle stab clamping" `Quick
            test_oracle_stab_clamped;
          Alcotest.test_case "nested pairs" `Quick test_nested_pairs;
        ] );
      ( "history",
        [ Alcotest.test_case "container semantics" `Quick test_history_container ] );
    ]
