(* Tests for the happens-before DPOR layer of lib/mc: the differential
   battery pinning --reduction dpor to --reduction none (same verdict,
   same distinct states, same certified counterexamples, fewer
   transitions) across every menu family and depths 3-7; qcheck
   properties of the independence relation and of adjacent-swap
   commutation; the Cover memo-record unit tests (including the PR-2
   mixture-absorption regression); revisit-ordering properties of the
   Cover record under the Striped table; and dpor parallel
   equivalence. *)
open Procset

module M_naive = Mc.Make (Consensus.Mr.With_quorum)
module M_anuc = Mc.Make (Core.Anuc)
module M_maj = Mc.Make (Consensus.Mr.Majority)
module M_ct = Mc.Make (Consensus.Ct)

(* The E11 universe, as in test_mc. *)
let n = 3
let faulty = Pset.singleton 2
let proposals p = if Pset.mem p faulty then 1 else 0
let pattern ~depth = Sim.Failure_pattern.make ~n ~crashes:[ (2, depth + 1) ]

(* -------------------------------------------------------------- *)
(* Differential battery: dpor vs none, per family, depths 3-7     *)
(* -------------------------------------------------------------- *)

(* The reduction contract under test: DPOR prunes transitions only.
   Verdict, distinct-state count and decided-leaf count must equal
   the unreduced run's at every depth, on every menu family — with
   the loss budgets 0 and 1 exercising the drop alphabet (a drop's
   fault verdict is part of the move, so slept drops must commute
   with the budget accounting). [run] returns the order-independent
   observables: (violation is none, stats). *)
let check_differential ~name ~depths
    (run : reduction:Mc.reduction -> depth:int -> bool * Mc.stats) =
  List.iter
    (fun depth ->
      let tag s = Printf.sprintf "%s depth %d: %s" name depth s in
      let none_v, none = run ~reduction:Mc.No_reduction ~depth in
      let dpor_v, dpor = run ~reduction:Mc.Dpor ~depth in
      Alcotest.(check bool) (tag "same verdict") none_v dpor_v;
      Alcotest.(check int)
        (tag "same distinct states")
        none.Mc.distinct_states dpor.Mc.distinct_states;
      Alcotest.(check int)
        (tag "same decided leaves")
        none.Mc.decided_leaves dpor.Mc.decided_leaves;
      Alcotest.(check bool)
        (tag "dpor takes no more transitions")
        true
        (dpor.Mc.transitions <= none.Mc.transitions);
      Alcotest.(check bool)
        (tag "neither truncated")
        false
        (none.Mc.truncated || dpor.Mc.truncated))
    depths

let naive_run ~menu ?max_drops () ~reduction ~depth =
  let pattern = pattern ~depth in
  let props =
    M_naive.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_naive.decided_stop ~decision:Consensus.Mr.With_quorum.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  let r =
    M_naive.run ~reduction ?max_drops ~n ~menu ~depth ~inputs:proposals
      ~props ~stop ()
  in
  (Option.is_none r.M_naive.violation, r.M_naive.stats)

let depths = [ 3; 4; 5; 6; 7 ]

let test_differential_contamination () =
  check_differential ~name:"contamination" ~depths
    (naive_run ~menu:(Mc.Menu.contamination ~n ~faulty ()) ())

let test_differential_lossy_budget_0 () =
  check_differential ~name:"lossy/0" ~depths
    (naive_run ~menu:(Mc.Menu.lossy ~n ~faulty ()) ~max_drops:0 ())

let test_differential_lossy_budget_1 () =
  check_differential ~name:"lossy/1" ~depths
    (naive_run ~menu:(Mc.Menu.lossy ~n ~faulty ()) ~max_drops:1 ())

let test_differential_full_class () =
  check_differential ~name:"full" ~depths
    (naive_run ~menu:(Mc.Menu.omega_sigma_nu ~n ~faulty) ())

let test_differential_omega_sigma () =
  check_differential ~name:"omega-sigma" ~depths
    (naive_run ~menu:(Mc.Menu.omega_sigma ~n ~faulty) ())

let test_differential_anuc_plus () =
  check_differential ~name:"contamination+" ~depths
    (fun ~reduction ~depth ->
      let pattern = pattern ~depth in
      let props =
        M_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
          ~flavour:Consensus.Spec.Nonuniform ~pattern
      in
      let stop =
        M_anuc.decided_stop ~decision:Core.Anuc.decision
          ~scope:(Sim.Failure_pattern.correct pattern)
      in
      let r =
        M_anuc.run ~reduction ~n
          ~menu:(Mc.Menu.contamination ~plus:true ~n ~faulty ())
          ~depth ~inputs:proposals ~props ~stop ()
      in
      (Option.is_none r.M_anuc.violation, r.M_anuc.stats))

let test_differential_leader_only () =
  check_differential ~name:"leader-only" ~depths (fun ~reduction ~depth ->
      let pattern = pattern ~depth in
      let props =
        M_maj.consensus_props ~decision:Consensus.Mr.Majority.decision
          ~proposals ~flavour:Consensus.Spec.Uniform ~pattern
      in
      let r =
        M_maj.run ~reduction ~n
          ~menu:(Mc.Menu.leader_only ~n ~faulty)
          ~depth ~inputs:proposals ~props ()
      in
      (Option.is_none r.M_maj.violation, r.M_maj.stats))

let test_differential_suspects () =
  check_differential ~name:"suspects" ~depths (fun ~reduction ~depth ->
      let pattern = pattern ~depth in
      let props =
        M_ct.consensus_props ~decision:Consensus.Ct.decision ~proposals
          ~flavour:Consensus.Spec.Uniform ~pattern
      in
      let r =
        M_ct.run ~reduction ~n
          ~menu:(Mc.Menu.suspects ~n ~faulty)
          ~depth ~inputs:proposals ~props ()
      in
      (Option.is_none r.M_ct.violation, r.M_ct.stats))

(* -------------------------------------------------------------- *)
(* Family-parameterized menus: none vs sleep vs dpor               *)
(* -------------------------------------------------------------- *)

(* The family menus change the move alphabet (different quorum sets
   per process), so sleep-set and happens-before independence are
   re-exercised on shapes the majority battery above never produces
   — e.g. the full-set min-quorum of super:1, or the owner-added
   grid lines at n = 4. All three reductions must stay verdict- and
   distinct-state-equal; the two pruners must not take more
   transitions than the unreduced run. *)
let check_differential3 ~name ~depths
    (run : reduction:Mc.reduction -> depth:int -> bool * Mc.stats) =
  List.iter
    (fun depth ->
      let tag red s = Printf.sprintf "%s depth %d [%s]: %s" name depth red s in
      let none_v, none = run ~reduction:Mc.No_reduction ~depth in
      Alcotest.(check bool)
        (tag "none" "not truncated")
        false none.Mc.truncated;
      List.iter
        (fun (rname, red) ->
          let v, s = run ~reduction:red ~depth in
          Alcotest.(check bool) (tag rname "same verdict") none_v v;
          Alcotest.(check int)
            (tag rname "same distinct states")
            none.Mc.distinct_states s.Mc.distinct_states;
          Alcotest.(check int)
            (tag rname "same decided leaves")
            none.Mc.decided_leaves s.Mc.decided_leaves;
          Alcotest.(check bool)
            (tag rname "takes no more transitions")
            true
            (s.Mc.transitions <= none.Mc.transitions);
          Alcotest.(check bool) (tag rname "not truncated") false s.Mc.truncated)
        [ ("sleep", Mc.Sleep_sets); ("dpor", Mc.Dpor) ])
    depths

let test_differential_family_weighted () =
  check_differential3 ~name:"contamination[weighted:2,1,1]" ~depths
    (naive_run
       ~menu:
         (Mc.Menu.contamination
            ~quorum:(Quorum_family.weighted ~weights:[ 2; 1; 1 ])
            ~n ~faulty ())
       ())

let test_differential_family_super () =
  (* super:1 at n = 3: every offered family quorum contains the
     faulty side, so no contamination schedule exists — the verdict
     is clean at every depth, and all three reductions must agree. *)
  check_differential3 ~name:"contamination[super:1]" ~depths
    (naive_run
       ~menu:
         (Mc.Menu.contamination
            ~quorum:(Quorum_family.supermajority ~f:1)
            ~n ~faulty ())
       ())

let test_differential_family_grid () =
  (* grid:2x2 needs n = 4; shallower depths keep the unreduced
     baseline cheap (state count grows ~8x per extra process). *)
  let n = 4 in
  let faulty = Pset.singleton 3 in
  let proposals p = if Pset.mem p faulty then 1 else 0 in
  let menu =
    Mc.Menu.contamination
      ~quorum:(Quorum_family.grid ~rows:2 ~cols:2 ())
      ~n ~faulty ()
  in
  check_differential3 ~name:"contamination[grid:2x2]" ~depths:[ 3; 4; 5 ]
    (fun ~reduction ~depth ->
      let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (3, depth + 1) ] in
      let props =
        M_naive.consensus_props ~decision:Consensus.Mr.With_quorum.decision
          ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
      in
      let stop =
        M_naive.decided_stop ~decision:Consensus.Mr.With_quorum.decision
          ~scope:(Sim.Failure_pattern.correct pattern)
      in
      let r =
        M_naive.run ~reduction ~n ~menu ~depth ~inputs:proposals ~props ~stop
          ()
      in
      (Option.is_none r.M_naive.violation, r.M_naive.stats))

let test_differential_family_anuc_plus () =
  check_differential3 ~name:"contamination+[weighted:2,1,1]" ~depths
    (fun ~reduction ~depth ->
      let pattern = pattern ~depth in
      let props =
        M_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
          ~flavour:Consensus.Spec.Nonuniform ~pattern
      in
      let stop =
        M_anuc.decided_stop ~decision:Core.Anuc.decision
          ~scope:(Sim.Failure_pattern.correct pattern)
      in
      let r =
        M_anuc.run ~reduction ~n
          ~menu:
            (Mc.Menu.contamination ~plus:true
               ~quorum:(Quorum_family.weighted ~weights:[ 2; 1; 1 ])
               ~n ~faulty ())
          ~depth ~inputs:proposals ~props ~stop ()
      in
      (Option.is_none r.M_anuc.violation, r.M_anuc.stats))

(* Counterexample equality at depths where a violation exists: a
   user invariant violated early in the exploration. Both reductions
   must convict the same property, and both counterexamples must pass
   the independent replay certificate — DPOR may pick a different
   (commutation-equivalent) schedule, but never a bogus one. *)
let test_differential_cx_certified () =
  List.iter
    (fun depth ->
      let menu = Mc.Menu.contamination ~n ~faulty () in
      let props =
        [
          M_naive.invariant ~name:"nobody leaves round 1" (fun st ->
              if
                List.exists
                  (fun p -> Consensus.Mr.With_quorum.round (st p) >= 2)
                  [ 0; 1; 2 ]
              then Error "some process reached round 2"
              else Ok ());
        ]
      in
      let run reduction =
        M_naive.run ~reduction ~n ~menu ~depth ~inputs:proposals ~props ()
      in
      let none = run Mc.No_reduction and dpor = run Mc.Dpor in
      match (none.M_naive.violation, dpor.M_naive.violation) with
      | None, None -> ()
      | Some _, None | None, Some _ ->
        Alcotest.failf "depth %d: reductions disagree on the verdict" depth
      | Some cn, Some cd ->
        Alcotest.(check string)
          (Printf.sprintf "depth %d: same property convicted" depth)
          cn.M_naive.cx_property cd.M_naive.cx_property;
        List.iter
          (fun (cx : M_naive.counterexample) ->
            match M_naive.replay_counterexample ~n ~inputs:proposals cx with
            | Ok _ -> ()
            | Error e ->
              Alcotest.failf "depth %d: counterexample must replay: %s" depth
                e)
          [ cn; cd ])
    depths

(* The naive-Sigma-nu Section 6.3 counterexample survives the
   reduction at its certified horizon, with both certificates. *)
let test_naive_cx_under_dpor () =
  let depth = 32 in
  let pattern = pattern ~depth in
  let menu = Mc.Menu.contamination ~n ~faulty () in
  let props =
    M_naive.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_naive.decided_stop ~decision:Consensus.Mr.With_quorum.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  let r =
    M_naive.run ~reduction:Mc.Dpor ~n ~menu ~depth ~inputs:proposals ~props
      ~stop ()
  in
  match r.M_naive.violation with
  | None -> Alcotest.fail "dpor must still find the Sec-6.3 violation"
  | Some cx ->
    Alcotest.(check string) "the violated property is nonuniform agreement"
      "nonuniform agreement" cx.M_naive.cx_property;
    (match M_naive.replay_counterexample ~n ~inputs:proposals cx with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "counterexample must replay: %s" e);
    (match
       Mc.history_legal ~kind:Mc.Menu.Sigma_nu ~pattern cx.M_naive.cx_samples
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "sampled history must be legal: %s" e)

(* The reduction statistics are reduction-shaped: races and backtrack
   points exist only under dpor, and the dpor run is strictly cheaper
   than sleep sets alone on a space with commuting no-ops. *)
let test_reduction_stats_shape () =
  let depth = 6 in
  let pattern = pattern ~depth in
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let props =
    M_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
      ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let run reduction =
    (M_anuc.run ~reduction ~n ~menu ~depth ~inputs:proposals ~props ())
      .M_anuc.stats
  in
  let none = run Mc.No_reduction in
  let sleep = run Mc.Sleep_sets in
  let dpor = run Mc.Dpor in
  Alcotest.(check int) "no races without dpor" 0 (none.Mc.races + sleep.Mc.races);
  Alcotest.(check int) "no backtracks without dpor" 0
    (none.Mc.backtracks + sleep.Mc.backtracks);
  Alcotest.(check bool) "dpor detects races" true (dpor.Mc.races > 0);
  Alcotest.(check bool) "races produce backtrack points" true
    (dpor.Mc.backtracks > 0);
  Alcotest.(check bool) "woken sleepers never exceed detected races" true
    (dpor.Mc.backtracks <= dpor.Mc.races);
  Alcotest.(check bool) "dpor < sleep transitions" true
    (dpor.Mc.transitions < sleep.Mc.transitions);
  Alcotest.(check bool) "sleep < none transitions" true
    (sleep.Mc.transitions < none.Mc.transitions)

(* -------------------------------------------------------------- *)
(* qcheck: the independence relation                               *)
(* -------------------------------------------------------------- *)

(* A generator over the real move shape: drops designate a pending
   message (m_recv = Some) and carry no detector value; lambda moves
   have no receive. *)
let fd_values =
  [
    Sim.Fd_value.Leader 0;
    Sim.Fd_value.Leader 1;
    Sim.Fd_value.Pair
      (Sim.Fd_value.Leader 0, Sim.Fd_value.Quorum (Pset.of_list [ 0; 1 ]));
  ]

let arb_move =
  QCheck.map
    (fun (pid, fd_ix, recv_ix, drop) ->
      let m_recv =
        if recv_ix = 0 then None
        else Some ((recv_ix - 1) mod 3, (recv_ix - 1) / 3)
      in
      let m_drop = drop && m_recv <> None in
      {
        M_naive.m_pid = pid;
        m_fd = (if m_drop then Sim.Fd_value.Unit else List.nth fd_values fd_ix);
        m_recv;
        m_drop;
      })
    QCheck.(quad (int_bound 2) (int_bound 2) (int_bound 9) bool)

let qtest_dependent_symmetric =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"move_dependent is symmetric" ~count:1000
       QCheck.(pair arb_move arb_move)
       (fun (a, b) ->
         M_naive.move_dependent a b = M_naive.move_dependent b a))

let qtest_dependent_reflexive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"move_dependent is reflexive" ~count:500 arb_move
       (fun a -> M_naive.move_dependent a a))

(* Independence is irreflexive on same-channel pairs: two moves that
   both consume from the same (src, dst) channel — two drops of it,
   a drop and its delivery, or two deliveries — never commute. *)
let qtest_same_channel_dependent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"same-channel pairs are never independent"
       ~count:1000
       QCheck.(pair arb_move arb_move)
       (fun (a, b) ->
         match (a.M_naive.m_recv, b.M_naive.m_recv) with
         | Some (sa, _), Some (sb, _)
           when sa = sb && a.M_naive.m_pid = b.M_naive.m_pid ->
           M_naive.move_dependent a b
         | _ -> QCheck.assume_fail ()))

(* -------------------------------------------------------------- *)
(* qcheck: adjacent-swap commutation                               *)
(* -------------------------------------------------------------- *)

let lossy_menu = Mc.Menu.lossy ~n ~faulty ()
let menus = Array.init n (fun p -> lossy_menu.Mc.Menu.values p)

(* A random applicable schedule of the naive automaton under the
   lossy menu (so the walk can include drop moves). *)
let random_schedule rng ~len =
  let rec go cfg acc k =
    if k = 0 then List.rev acc
    else
      match
        M_naive.Space.enabled ~n ~delivery:`Fifo ~lossy:true ~menus cfg
      with
      | [] -> List.rev acc
      | moves ->
        let mv = List.nth moves (Random.State.int rng (List.length moves)) in
        go (M_naive.Space.apply ~n cfg mv) (mv :: acc) (k - 1)
  in
  go (M_naive.Space.initial ~n ~inputs:proposals) [] len

let apply_all moves =
  List.fold_left
    (fun acc mv ->
      match acc with
      | None -> None
      | Some cfg ->
        if M_naive.Space.applicable ~n cfg mv then
          Some (M_naive.Space.apply ~n cfg mv)
        else None)
    (Some (M_naive.Space.initial ~n ~inputs:proposals))
    moves

let swap_at i moves =
  let rec go k = function
    | a :: b :: tl when k = i -> b :: a :: tl
    | hd :: tl -> hd :: go (k + 1) tl
    | [] -> []
  in
  go 0 moves

(* Swapping an *applicable* independent adjacent pair yields a
   schedule that (a) reaches the Space-equal configuration, (b)
   concretizes to a run the replay certificate accepts, and (c) has
   the same canonical trace key. Label-independence does not imply
   the swap is applicable — the first move may causally enable the
   second (a step that sends the very message the next move
   delivers); the checker never needs those swaps (a slept move was
   enabled before the taken one by construction), so the property
   carries the same enabledness side condition. *)
let qtest_independent_swap_equivalent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"independent adjacent swaps commute" ~count:120
       QCheck.(pair small_nat (int_range 4 14))
       (fun (seed, len) ->
         let rng = Random.State.make [| 0x5DAB; seed |] in
         let moves = random_schedule rng ~len in
         let swappable =
           List.mapi (fun i _ -> i) moves
           |> List.filter (fun i ->
                  i < List.length moves - 1
                  && (not
                        (M_naive.move_dependent (List.nth moves i)
                           (List.nth moves (i + 1))))
                  && apply_all (swap_at i moves) <> None)
         in
         match swappable with
         | [] -> QCheck.assume_fail ()
         | _ ->
           let i =
             List.nth swappable
               (Random.State.int rng (List.length swappable))
           in
           let swapped = swap_at i moves in
           let certify ms =
             let steps, samples, states =
               M_naive.Space.concretize ~n ~inputs:proposals ms
             in
             let cx =
               {
                 M_naive.cx_property = "swap-certificate";
                 cx_detail = "";
                 cx_moves = ms;
                 cx_steps = steps;
                 cx_samples = samples;
                 cx_states = states;
               }
             in
             Result.is_ok
               (M_naive.replay_counterexample ~n ~inputs:proposals cx)
           in
           (match (apply_all moves, apply_all swapped) with
           | Some a, Some b -> M_naive.Space.equal a b
           | _ -> false)
           && M_naive.trace_key moves = M_naive.trace_key swapped
           && certify moves && certify swapped))

(* [Space.self_loop] and [Space.equal] at every config of a lossy walk
   of the naive automaton, for every move enabled there
   ([Tutil.self_loop_rule_holds]). *)
let qtest_self_loop_rule =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"self_loop and equal agree with apply and (=)"
       ~count:60
       QCheck.(pair small_nat (int_range 4 30))
       (fun (seed, len) ->
         let rng = Random.State.make [| 0x5E1F; seed |] in
         let holds cfg =
           Tutil.self_loop_rule_holds
             ~self_loop:(M_naive.Space.self_loop ~n)
             ~equal:M_naive.Space.equal ~apply:(M_naive.Space.apply ~n) cfg
             (M_naive.Space.enabled ~n ~delivery:`Fifo ~lossy:true ~menus cfg)
         in
         let rec go cfg = function
           | [] -> holds cfg
           | mv :: rest ->
             holds cfg && go (M_naive.Space.apply ~n cfg mv) rest
         in
         go
           (M_naive.Space.initial ~n ~inputs:proposals)
           (random_schedule rng ~len)))

(* [trace_key] against the quadratic linearization it replaced:
   indegrees over every dependent earlier move, then repeatedly the
   structurally minimal move of indegree 0, lowest index first. *)
let reference_trace_key moves =
  let arr = Array.of_list moves in
  let len = Array.length arr in
  let indeg = Array.make len 0 in
  for j = 0 to len - 1 do
    for i = 0 to j - 1 do
      if M_naive.move_dependent arr.(i) arr.(j) then indeg.(j) <- indeg.(j) + 1
    done
  done;
  let taken = Array.make len false in
  let out = ref [] in
  for _ = 1 to len do
    let best = ref (-1) in
    for i = len - 1 downto 0 do
      if
        (not taken.(i))
        && indeg.(i) = 0
        && (!best < 0 || Stdlib.compare arr.(i) arr.(!best) <= 0)
      then best := i
    done;
    let b = !best in
    taken.(b) <- true;
    out := arr.(b) :: !out;
    for j = b + 1 to len - 1 do
      if (not taken.(j)) && M_naive.move_dependent arr.(b) arr.(j) then
        indeg.(j) <- indeg.(j) - 1
    done
  done;
  Hashtbl.hash_param 500 1000 (List.rev !out)

let qtest_trace_key_reference =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"trace_key matches the quadratic linearization (any moves)"
         ~count:500
         QCheck.(list_of_size Gen.(0 -- 40) arb_move)
         (fun moves -> M_naive.trace_key moves = reference_trace_key moves));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"trace_key matches the quadratic linearization (walks)"
         ~count:200
         QCheck.(pair small_nat (int_range 1 80))
         (fun (seed, len) ->
           let moves =
             random_schedule (Random.State.make [| 0x7EA5; seed |]) ~len
           in
           M_naive.trace_key moves = reference_trace_key moves));
  ]

(* Dependent adjacent swaps must NOT be identified by the trace key
   when the moves differ — the canonicalization quotients by
   commutation only. (Equal adjacent moves swap to the same word.) *)
let qtest_dependent_swap_distinct =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"trace_key separates dependent-swap schedules" ~count:200
       QCheck.(pair arb_move arb_move)
       (fun (a, b) ->
         if M_naive.move_dependent a b && a <> b then
           M_naive.trace_key [ a; b ] <> M_naive.trace_key [ b; a ]
         else QCheck.assume_fail ()))

(* -------------------------------------------------------------- *)
(* Cover: the memo-coverage record                                 *)
(* -------------------------------------------------------------- *)

module Cov = Mc.Cover.Make (struct
  type t = int

  let equal = Int.equal
end)

let test_cover_absorbs_dominated () =
  let e = Cov.make ~remaining:5 ~drops:2 ~slept:[ 1 ] in
  (match Cov.revisit e ~remaining:4 ~drops:2 ~slept:[ 1; 3 ] with
  | `Absorbed -> ()
  | `Expand _ -> Alcotest.fail "dominated revisit must be absorbed");
  (* each budget axis independently breaks domination *)
  (match Cov.revisit e ~remaining:6 ~drops:0 ~slept:[ 1 ] with
  | `Absorbed -> Alcotest.fail "deeper budget must re-expand"
  | `Expand _ -> ());
  let e = Cov.make ~remaining:5 ~drops:2 ~slept:[ 1 ] in
  (match Cov.revisit e ~remaining:5 ~drops:3 ~slept:[ 1 ] with
  | `Absorbed -> Alcotest.fail "bigger loss budget must re-expand"
  | `Expand _ -> ());
  (* a stored sleep set NOT included in the revisit's breaks
     domination: the store pruned moves the revisit would explore *)
  let e = Cov.make ~remaining:5 ~drops:2 ~slept:[ 1 ] in
  match Cov.revisit e ~remaining:5 ~drops:2 ~slept:[ 2 ] with
  | `Absorbed -> Alcotest.fail "incomparable sleep set must re-expand"
  | `Expand slept' ->
    Alcotest.(check (list int)) "re-expansion under the intersection" []
      slept'

let test_cover_goal_absorbs_everything () =
  let e = Cov.goal () in
  match Cov.revisit e ~remaining:max_int ~drops:max_int ~slept:[] with
  | `Absorbed -> ()
  | `Expand _ -> Alcotest.fail "goal entries absorb every revisit"

(* The PR-2 regression: a revisit that dominates on one budget axis
   but not the other must NOT graft its budget onto the stored entry.
   The poisoned mixture (max remaining, max drops, intersected sleep
   set) would absorb a third visit whose schedules were never
   walked. *)
let test_cover_no_mixture_regression () =
  let e = Cov.make ~remaining:5 ~drops:0 ~slept:[ 1 ] in
  (match Cov.revisit e ~remaining:3 ~drops:5 ~slept:[ 2 ] with
  | `Absorbed -> Alcotest.fail "incomparable visit must re-expand"
  | `Expand slept' ->
    Alcotest.(check (list int)) "expands under the intersection" [] slept');
  (* the entry still describes the FIRST visit: remaining 5, drops 0 *)
  Alcotest.(check int) "remaining not mixed" 5 (Cov.remaining e);
  Alcotest.(check int) "drops not mixed" 0 (Cov.drops e);
  Alcotest.(check (list int)) "slept not mixed" [ 1 ] (Cov.slept e);
  (* the witness: (4, 4, []) is dominated by the mixture (5, 5, [])
     but by neither real visit — it must re-expand *)
  match Cov.revisit e ~remaining:4 ~drops:4 ~slept:[] with
  | `Absorbed ->
    Alcotest.fail
      "mixture absorption: this coverage was never actually walked"
  | `Expand _ -> ()

let test_cover_update_on_domination () =
  let e = Cov.make ~remaining:5 ~drops:0 ~slept:[ 1; 2 ] in
  (match Cov.revisit e ~remaining:6 ~drops:1 ~slept:[ 2; 3 ] with
  | `Absorbed -> Alcotest.fail "strictly deeper visit must re-expand"
  | `Expand slept' ->
    Alcotest.(check (list int)) "intersected sleep set" [ 2 ] slept');
  Alcotest.(check int) "remaining updated" 6 (Cov.remaining e);
  Alcotest.(check int) "drops updated" 1 (Cov.drops e);
  Alcotest.(check (list int)) "slept is the intersection" [ 2 ]
    (Cov.slept e);
  (* the updated entry describes the walk about to happen: it now
     absorbs what it dominates *)
  match Cov.revisit e ~remaining:6 ~drops:1 ~slept:[ 2; 9 ] with
  | `Absorbed -> ()
  | `Expand _ -> Alcotest.fail "updated entry must absorb dominated visits"

(* -------------------------------------------------------------- *)
(* qcheck: revisit ordering under the striped table                *)
(* -------------------------------------------------------------- *)

module Ikey = struct
  type t = int

  let equal = Int.equal
end

module Striped = Mc.Intern.Striped (Ikey)

let arb_visits =
  QCheck.list_of_size (QCheck.Gen.int_range 1 12)
    QCheck.(
      triple (int_bound 8) (int_bound 8)
        (list_of_size (Gen.int_range 0 3) (int_bound 4)))

(* The parallel checker applies revisits in whatever order the domains
   race to the stripe lock. Soundness must hold for EVERY order: a
   visit is absorbed only when some earlier visit dominated it, and
   after any prefix the entry still describes one walked exploration
   — its budgets are exactly some earlier visit's, with a sleep set
   included in that visit's. This is the no-mixture invariant under
   the exact with_key access pattern run_par uses. *)
let qtest_striped_revisit_ordering =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"striped revisits keep the no-mixture invariant"
       ~count:500 arb_visits (fun visits ->
         let tbl : Cov.entry Striped.t = Striped.create ~stripes:4 16 in
         let h = Mc.Intern.hashed Hashtbl.hash in
         let key = h 7 in
         let ok = ref true in
         (* every exploration actually performed: a fresh visit walks
            under its own sleep set, a re-expanded visit walks under
            the *intersected* sleep set that [revisit] hands back. *)
         let walked = ref [] in
         let subset xs ys = List.for_all (fun m -> List.mem m ys) xs in
         let entry_is_walked e ws =
           List.exists
             (fun (r, d, s) ->
               r = Cov.remaining e && d = Cov.drops e
               && subset s (Cov.slept e)
               && subset (Cov.slept e) s)
             ws
         in
         List.iter
           (fun (remaining, drops, slept) ->
             let decision =
               Striped.with_key tbl key (fun prev ->
                   match prev with
                   | None ->
                     (`Fresh, Some (Cov.make ~remaining ~drops ~slept))
                   | Some e -> (
                     match Cov.revisit e ~remaining ~drops ~slept with
                     | `Absorbed -> (`Absorbed e, None)
                     | `Expand slept' -> (`Expanded (e, slept'), None)))
             in
             match decision with
             | `Fresh -> walked := (remaining, drops, slept) :: !walked
             | `Absorbed e ->
               (* absorption only when some exploration already walked
                  dominates the current budgets with a smaller sleep
                  set — otherwise a schedule could be pruned that no
                  walk has covered (the PR-2 absorption bug). *)
               if
                 not
                   (List.exists
                      (fun (r, d, s) ->
                        r >= remaining && d >= drops && subset s slept)
                      !walked)
               then ok := false;
               if not (entry_is_walked e !walked) then ok := false
             | `Expanded (e, slept') ->
               walked := (remaining, drops, slept') :: !walked;
               (* the entry always describes exactly one walked
                  exploration — budgets and sleep set together, never
                  a mixture of two visits' fields *)
               if not (entry_is_walked e !walked) then ok := false)
           visits;
         !ok))

(* -------------------------------------------------------------- *)
(* Parallel dpor                                                   *)
(* -------------------------------------------------------------- *)

(* mc --reduction dpor must reproduce the same order-independent
   observables at every job count, exactly as the sleep-set checker
   does — the per-worker no-op caches and race counters may not leak
   into the verdict or the state count. The pins (verdict clean,
   distinct states, decided leaves) were recorded from the dedicated
   sequential walker the engine used to keep for jobs = 1. *)
let test_dpor_parallel_matches_sequential () =
  let depth = 6 in
  let pattern = pattern ~depth in
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let props =
    M_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
      ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_anuc.decided_stop ~decision:Core.Anuc.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  List.iter
    (fun jobs ->
      let r =
        M_anuc.run ~reduction:Mc.Dpor ~jobs ~n ~menu ~depth ~inputs:proposals
          ~props ~stop ()
      in
      Tutil.check_mc_pin
        ~tag:(Printf.sprintf "jobs=%d: %s" jobs)
        (true, 3392, 0)
        ~violated:(Option.is_some r.M_anuc.violation)
        r.M_anuc.stats)
    [ 1; 2 ]

(* The same under a loss budget: slept drops and the budget-aware
   memo record cross the striped table. *)
let test_dpor_parallel_lossy () =
  let depth = 5 in
  let pattern = pattern ~depth in
  let props =
    M_naive.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  List.iter
    (fun jobs ->
      let r =
        M_naive.run ~reduction:Mc.Dpor ~jobs ~n
          ~menu:(Mc.Menu.lossy ~n ~faulty ())
          ~depth ~max_drops:1 ~inputs:proposals ~props ()
      in
      Tutil.check_mc_pin
        ~tag:(Printf.sprintf "jobs=%d: %s" jobs)
        (true, 1377, 0)
        ~violated:(Option.is_some r.M_naive.violation)
        r.M_naive.stats)
    [ 1; 2 ]

(* -------------------------------------------------------------- *)
(* E14 end to end, exactly as the experiments table runs it        *)
(* -------------------------------------------------------------- *)

let test_e14_quick_passes () =
  let row = Experiments.e14_dpor ~quick:true () in
  if not row.Experiments.pass then
    Alcotest.failf "E14 failed: %s" row.Experiments.measured

let test_b11_quick_consistent () =
  let rows = Experiments.b11_dpor_table ~quick:true () in
  Alcotest.(check int) "one row per reduction" 3 (List.length rows);
  List.iter
    (fun (r : Experiments.b11_row) ->
      if not r.Experiments.b11_pass then
        Alcotest.failf "b11 row %s must pass" r.Experiments.b11_reduction)
    rows;
  match rows with
  | [ none; sleep; dpor ] ->
    Alcotest.(check string) "row order" "none" none.Experiments.b11_reduction;
    Alcotest.(check string) "row order" "sleep"
      sleep.Experiments.b11_reduction;
    Alcotest.(check string) "row order" "dpor" dpor.Experiments.b11_reduction;
    Alcotest.(check bool) "dpor takes the fewest transitions" true
      (dpor.Experiments.b11_transitions <= sleep.Experiments.b11_transitions
      && sleep.Experiments.b11_transitions
         <= none.Experiments.b11_transitions)
  | _ -> assert false

let () =
  Alcotest.run "dpor"
    [
      ( "differential",
        [
          Alcotest.test_case "contamination, depths 3-7" `Quick
            test_differential_contamination;
          Alcotest.test_case "lossy budget 0, depths 3-7" `Quick
            test_differential_lossy_budget_0;
          Alcotest.test_case "lossy budget 1, depths 3-7" `Quick
            test_differential_lossy_budget_1;
          Alcotest.test_case "full class, depths 3-7" `Quick
            test_differential_full_class;
          Alcotest.test_case "omega-sigma, depths 3-7" `Quick
            test_differential_omega_sigma;
          Alcotest.test_case "contamination+ (A_nuc), depths 3-7" `Quick
            test_differential_anuc_plus;
          Alcotest.test_case "leader-only (majority), depths 3-7" `Quick
            test_differential_leader_only;
          Alcotest.test_case "family weighted:2,1,1, depths 3-7" `Quick
            test_differential_family_weighted;
          Alcotest.test_case "family super:1, depths 3-7" `Quick
            test_differential_family_super;
          Alcotest.test_case "family grid:2x2 (n=4), depths 3-5" `Quick
            test_differential_family_grid;
          Alcotest.test_case "family contamination+ (A_nuc), depths 3-7"
            `Quick test_differential_family_anuc_plus;
          Alcotest.test_case "suspects (CT), depths 3-7" `Quick
            test_differential_suspects;
          Alcotest.test_case "counterexamples certified equal" `Quick
            test_differential_cx_certified;
          Alcotest.test_case "Sec-6.3 cx survives dpor" `Quick
            test_naive_cx_under_dpor;
          Alcotest.test_case "reduction stats shape" `Quick
            test_reduction_stats_shape;
        ] );
      ( "independence",
        [
          qtest_dependent_symmetric;
          qtest_dependent_reflexive;
          qtest_same_channel_dependent;
          qtest_independent_swap_equivalent;
          qtest_dependent_swap_distinct;
          qtest_self_loop_rule;
        ]
        @ qtest_trace_key_reference );
      ( "cover",
        [
          Alcotest.test_case "absorbs dominated revisits" `Quick
            test_cover_absorbs_dominated;
          Alcotest.test_case "goal absorbs everything" `Quick
            test_cover_goal_absorbs_everything;
          Alcotest.test_case "no-mixture regression (PR-2)" `Quick
            test_cover_no_mixture_regression;
          Alcotest.test_case "updates on dominating revisit" `Quick
            test_cover_update_on_domination;
          qtest_striped_revisit_ordering;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "dpor jobs=2 matches jobs=1 (A_nuc)" `Quick
            test_dpor_parallel_matches_sequential;
          Alcotest.test_case "dpor jobs=2 matches jobs=1 (lossy)" `Quick
            test_dpor_parallel_lossy;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "E14 (quick) passes" `Quick test_e14_quick_passes;
          Alcotest.test_case "B11 (quick) consistent" `Quick
            test_b11_quick_consistent;
        ] );
    ]
