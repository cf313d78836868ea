(* Tests for the consensus problem spec and the Mostéfaoui–Raynal
   baselines. *)
open Procset
module Mr = Consensus.Mr

(* -------------------------------------------------------------- *)
(* Problem spec                                                    *)
(* -------------------------------------------------------------- *)

let mk_outcome ~crashes ~proposals ~decisions =
  let n = Array.length proposals in
  let pattern = Sim.Failure_pattern.make ~n ~crashes in
  Consensus.Spec.outcome ~pattern
    ~proposals:(fun p -> proposals.(p))
    ~decisions:(fun p -> decisions.(p))

let test_spec_termination () =
  let o =
    mk_outcome ~crashes:[ (2, 5) ] ~proposals:[| 0; 1; 1 |]
      ~decisions:[| Some 1; None; None |]
  in
  (match Consensus.Spec.check_termination o with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undecided correct p1 must fail termination");
  let o' =
    mk_outcome ~crashes:[ (2, 5) ] ~proposals:[| 0; 1; 1 |]
      ~decisions:[| Some 1; Some 1; None |]
  in
  match Consensus.Spec.check_termination o' with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_spec_agreement_flavours () =
  (* faulty p2 decides differently: nonuniform OK, uniform violated *)
  let o =
    mk_outcome ~crashes:[ (2, 50) ] ~proposals:[| 0; 1; 1 |]
      ~decisions:[| Some 0; Some 0; Some 1 |]
  in
  (match Consensus.Spec.check_agreement Consensus.Spec.Nonuniform o with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("nonuniform should tolerate: " ^ e));
  match Consensus.Spec.check_agreement Consensus.Spec.Uniform o with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "uniform must reject a divergent faulty decision"

let test_spec_validity () =
  let o =
    mk_outcome ~crashes:[] ~proposals:[| 0; 0; 0 |]
      ~decisions:[| Some 1; None; None |]
  in
  match Consensus.Spec.check_validity o with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "deciding an unproposed value must fail validity"

(* -------------------------------------------------------------- *)
(* MR sweeps                                                       *)
(* -------------------------------------------------------------- *)

let seeds = [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* MR with majorities solves uniform consensus when a majority of
   processes is correct [MR01]. *)
let test_mr_majority_minority_failures () =
  List.iter
    (fun n ->
      let t_max = (n - 1) / 2 in
      if t_max >= 1 then begin
        let r =
          Tutil.sweep (module Mr.Majority) ~family:Tutil.benign_sigma
            ~flavour:Consensus.Spec.Uniform ~n
            ~t_range:(List.init t_max (fun i -> i + 1))
            ~seeds ()
        in
        Alcotest.(check bool) "ran" true (r.Tutil.runs > 0)
      end)
    [ 3; 4; 5; 7 ]

(* MR with Sigma quorums solves uniform consensus in any environment
   (footnote 5 of the paper). *)
let test_mr_sigma_any_failures () =
  List.iter
    (fun n ->
      let r =
        Tutil.sweep (module Mr.With_quorum) ~family:Tutil.benign_sigma
          ~flavour:Consensus.Spec.Uniform ~n
          ~t_range:(List.init (n - 1) (fun i -> i + 1))
          ~seeds ()
      in
      Alcotest.(check bool) "ran" true (r.Tutil.runs > 0);
      if n = 4 then
        Tutil.check_sweep_pin ~tag:"MR-Sigma, n = 4" (24, 1566) r)
    [ 3; 4; 5; 6 ]

(* All-same proposals decide that value (validity end to end). *)
let test_mr_validity_unanimous () =
  let n = 4 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (3, 25) ] in
  let oracle = Tutil.benign_sigma.Tutil.make ~seed:3 pattern in
  List.iter
    (fun v ->
      let r =
        Consensus.Spec.decide (module Mr.With_quorum) ~seed:3 ~pattern
          ~fd:oracle.Fd.Oracle.query
          ~proposals:(fun _ -> v)
          ~max_steps:4000 ()
      in
      Pset.iter
        (fun p ->
          Alcotest.(check (option int))
            (Printf.sprintf "p%d decides the unanimous value %d" p v)
            (Some v)
            r.Consensus.Spec.outcome.decisions.(p))
        (Sim.Failure_pattern.correct pattern))
    [ 0; 1 ]

(* Deterministic phase walk of one round with two processes, driven
   step by step through a session. *)
let test_mr_phase_walk () =
  let n = 2 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[] in
  let fd _ _ =
    Sim.Fd_value.Pair
      (Sim.Fd_value.Leader 0, Sim.Fd_value.Quorum (Pset.of_list [ 0; 1 ]))
  in
  let module R = Sim.Runner.Make (Mr.With_quorum) in
  let s = R.Session.create ~pattern ~fd ~inputs:(fun p -> p) () in
  let state p = R.Session.state s p in
  (* first steps broadcast LEAD(1) and wait for the leader's LEAD *)
  R.Session.step ~choice:R.Lambda s 0;
  R.Session.step ~choice:R.Lambda s 1;
  Alcotest.(check bool) "p0 waiting for lead" true
    (Mr.With_quorum.phase (state 0) = Mr.Phase_lead);
  (* deliver p0's LEAD to both; they adopt 0 and move to REP wait *)
  R.Session.step ~choice:(R.Oldest_from 0) s 0;
  R.Session.step ~choice:(R.Oldest_from 0) s 1;
  Alcotest.(check int) "p1 adopted leader estimate" 0
    (Mr.With_quorum.estimate (state 1));
  Alcotest.(check bool) "p1 waiting for reports" true
    (Mr.With_quorum.phase (state 1) = Mr.Phase_rep);
  (* drive to completion with alternating fair steps *)
  let rec drain i =
    if i > 200 then Alcotest.fail "round did not complete"
    else if
      Mr.With_quorum.decision (state 0) <> None
      && Mr.With_quorum.decision (state 1) <> None
    then ()
    else begin
      R.Session.step s (i mod 2);
      drain (i + 1)
    end
  in
  drain 0;
  Alcotest.(check (option int)) "p0 decided leader's value" (Some 0)
    (Mr.With_quorum.decision (state 0));
  Alcotest.(check (option int)) "p1 decided leader's value" (Some 0)
    (Mr.With_quorum.decision (state 1));
  Alcotest.(check (option int)) "decided in round 1" (Some 1)
    (Mr.With_quorum.decision_round (state 0))

(* Crash of the initial leader mid-run: the survivors still decide
   once Omega settles on a live process. *)
let test_mr_leader_crash () =
  let n = 4 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (0, 40) ] in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~seed:1 ~stab_time:80 pattern)
      (Fd.Oracle.sigma ~seed:1 ~stab_time:80 pattern)
  in
  let r =
    Consensus.Spec.decide (module Mr.With_quorum) ~seed:1 ~pattern
      ~fd:oracle.Fd.Oracle.query
      ~proposals:(fun p -> p mod 2)
      ~max_steps:6000 ()
  in
  Alcotest.(check bool) "decided despite leader crash" true
    r.Consensus.Spec.all_decided

(* The minimum system: two processes, one may crash. *)
let test_mr_n2 () =
  let r =
    Tutil.sweep (module Mr.With_quorum) ~family:Tutil.benign_sigma
      ~flavour:Consensus.Spec.Uniform ~n:2 ~t_range:[ 1 ] ~seeds ()
  in
  Alcotest.(check bool) "ran" true (r.Tutil.runs > 0)

(* Round-number sanity: with an immediately-stable detector the
   algorithm decides in the first round. *)
let test_mr_one_round_when_stable () =
  let n = 5 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[] in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~stab_time:0 pattern)
      (Fd.Oracle.sigma ~stab_time:0 pattern)
  in
  let module R = Sim.Runner.Make (Mr.With_quorum) in
  let run =
    R.exec ~seed:0 ~lambda_prob:0.0 ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs:(fun _ -> 1)
      ~max_steps:4000
      ~stop:(fun st _ ->
        Pset.for_all (fun p -> Mr.With_quorum.decision (st p) <> None)
          (Pset.full ~n))
      ()
  in
  Array.iter
    (fun st ->
      match Mr.With_quorum.decision_round st with
      | Some r ->
        Alcotest.(check bool) "decided within two rounds" true (r <= 2)
      | None -> Alcotest.fail "undecided")
    run.R.states

(* -------------------------------------------------------------- *)
(* Chandra-Toueg <>S consensus                                     *)
(* -------------------------------------------------------------- *)

let ct_family = Tutil.eventually_strong

(* CT solves uniform consensus whenever a majority is correct. *)
let test_ct_uniform_minority_failures () =
  List.iter
    (fun n ->
      let t_max = (n - 1) / 2 in
      if t_max >= 1 then begin
        let r =
          Tutil.sweep (module Consensus.Ct) ~family:ct_family
            ~flavour:Consensus.Spec.Uniform ~n
            ~t_range:(List.init t_max (fun i -> i + 1))
            ~seeds ()
        in
        Alcotest.(check bool) "ran" true (r.Tutil.runs > 0);
        if n = 4 then
          Tutil.check_sweep_pin ~tag:"CT uniform, n = 4" (8, 580) r
      end)
    [ 3; 4; 5; 7 ]

(* With a late-stabilizing detector the rotation visits bad
   coordinators first; the algorithm still decides afterwards. *)
let test_ct_late_stabilization () =
  let n = 5 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (0, 20); (4, 60) ] in
  let oracle = Fd.Oracle.eventually_strong ~seed:3 ~stab_time:200 pattern in
  let r =
    Consensus.Spec.decide (module Consensus.Ct) ~seed:3 ~pattern
      ~fd:oracle.Fd.Oracle.query
      ~proposals:(fun p -> p mod 2)
      ~max_steps:8000 ()
  in
  Alcotest.(check bool) "decided" true r.Consensus.Spec.all_decided;
  match
    Consensus.Spec.check Consensus.Spec.Uniform r.Consensus.Spec.outcome
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* -------------------------------------------------------------- *)
(* Section 6.3 contamination, on every `dune runtest`              *)
(* -------------------------------------------------------------- *)

(* The naive substitution of Sigma-nu quorums into MR is unsafe: the
   scripted Section 6.3 adversary drives two correct processes to
   different decisions under a detector history that provably
   satisfies (Omega, Sigma-nu). *)
let test_contamination_naive_violates () =
  let o = Core.Scenario.contamination_naive_mr () in
  Alcotest.(check bool)
    "nonuniform agreement violated among correct processes" true
    o.Core.Scenario.agreement_violated;
  (match o.Core.Scenario.history_valid with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "the adversary's history must be legal: %a"
      Fd.Check.pp_violation v);
  (* the violation is the one of the paper: p0 and p1 are both
     correct yet decide the two different proposed values *)
  match (o.Core.Scenario.decisions.(0), o.Core.Scenario.decisions.(1)) with
  | Some d0, Some d1 when d0 <> d1 -> ()
  | d0, d1 ->
    Alcotest.failf "expected split correct decisions, got %a / %a"
      Consensus.Value.pp_opt d0 Consensus.Value.pp_opt d1

(* A_nuc does not fall to the same script: some scripted wait never
   completes (a safety mechanism refuses the step), or the script
   runs to completion without an agreement violation. *)
let test_contamination_anuc_resists () =
  let module C = Core.Scenario.Contaminate (Core.Anuc) in
  match C.run () with
  | Error _ -> (* blocked: distrust or quorum-awareness engaged *) ()
  | Ok o ->
    Alcotest.(check bool)
      "A_nuc kept nonuniform agreement under the Sec-6.3 script" false
      o.Core.Scenario.agreement_violated

(* ... while the doubly-ablated skeleton demonstrably falls,
   pinning that the mechanisms (not the script) are what resist. *)
let test_contamination_ablated_falls () =
  let o = Core.Scenario.contamination_anuc_unsafe () in
  Alcotest.(check bool)
    "A_nuc without distrust+awareness violates NU agreement" true
    o.Core.Scenario.agreement_violated;
  match o.Core.Scenario.history_valid with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "the adversary's history must be legal: %a"
      Fd.Check.pp_violation v

(* MR-Sigma solves uniform consensus on universes drawn from the
   shared generator (shrinking lands on a minimal crash schedule). *)
let prop_mr_sigma_generated_universes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"MR-Sigma uniform on generated universes"
       ~count:25
       (QCheck.pair
          (Tutil.arb_universe ~min_n:2 ~max_n:6 ~crash_window:100 ())
          QCheck.(int_range 0 10_000))
       (fun (u, seed) ->
         let pattern = Tutil.universe_pattern u in
         let r =
           Tutil.run_once
             (module Consensus.Mr.With_quorum)
             ~family:Tutil.benign_sigma ~pattern ~seed ~max_steps:6000
         in
         Result.is_ok
           (Consensus.Spec.check_safety Consensus.Spec.Uniform
              r.Consensus.Spec.outcome)))

let () =
  Alcotest.run "consensus"
    [
      ( "spec",
        [
          Alcotest.test_case "termination" `Quick test_spec_termination;
          Alcotest.test_case "agreement flavours" `Quick
            test_spec_agreement_flavours;
          Alcotest.test_case "validity" `Quick test_spec_validity;
        ] );
      ( "contamination",
        [
          Alcotest.test_case "naive MR+Sigma-nu violates (Sec 6.3)" `Quick
            test_contamination_naive_violates;
          Alcotest.test_case "A_nuc resists the script" `Quick
            test_contamination_anuc_resists;
          Alcotest.test_case "doubly-ablated skeleton falls" `Quick
            test_contamination_ablated_falls;
        ] );
      ( "chandra-toueg",
        [
          Alcotest.test_case "uniform, minority failures" `Slow
            test_ct_uniform_minority_failures;
          Alcotest.test_case "late stabilization" `Quick
            test_ct_late_stabilization;
        ] );
      ( "mostefaoui-raynal",
        [
          Alcotest.test_case "majority mode, minority failures" `Slow
            test_mr_majority_minority_failures;
          Alcotest.test_case "sigma mode, any failures" `Slow
            test_mr_sigma_any_failures;
          Alcotest.test_case "unanimous validity" `Quick
            test_mr_validity_unanimous;
          Alcotest.test_case "phase walk (scripted)" `Quick test_mr_phase_walk;
          Alcotest.test_case "leader crash" `Quick test_mr_leader_crash;
          Alcotest.test_case "n = 2" `Quick test_mr_n2;
          Alcotest.test_case "fast decision when stable" `Quick
            test_mr_one_round_when_stable;
          prop_mr_sigma_generated_universes;
        ] );
    ]
