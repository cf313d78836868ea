open Procset

type row = {
  id : string;
  theorem : string;
  expected : string;
  measured : string;
  pass : bool;
}

let pp_row fmt r =
  Format.fprintf fmt "@[<v>%-3s %-34s@,    expected: %s@,    measured: %s  [%s]@]"
    r.id r.theorem r.expected r.measured
    (if r.pass then "PASS" else "FAIL")

let row_spec =
  Report.Table.(
    make
      [
        json "id" (fun r -> Report.Str r.id);
        json "theorem" (fun r -> Report.Str r.theorem);
        json "expected" (fun r -> Report.Str r.expected);
        json "measured" (fun r -> Report.Str r.measured);
        json "pass" (fun r -> Report.Bool r.pass);
      ])

(* ---------------------------------------------------------------- *)
(* Shared plumbing                                                   *)
(* ---------------------------------------------------------------- *)

(* Runners for the recorded runs E9, E10 and E12 inspect, for B3's
   emulator and for the B4 reference run. *)
module Anuc_runner = Sim.Runner.Make (Core.Anuc)
module Mrq_runner = Sim.Runner.Make (Consensus.Mr.With_quorum)
module Tsp_runner = Sim.Runner.Make (Core.T_sigma_plus)
module Tx_mr = Core.T_extract.Make (Consensus.Mr.With_quorum)
module Tx_anuc = Core.T_extract.Make (Core.Anuc)

let random_pattern ~seed ~n ~t =
  let env = Sim.Env.make ~n ~max_faulty:t in
  let rng = Random.State.make [| seed; n; t |] in
  Sim.Env.random_pattern rng ~crash_window:120 env

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let mean total count =
  if count = 0 then nan else float_of_int total /. float_of_int count

(* Validity and NU agreement: [Consensus.Spec.check] without
   termination, for runs whose liveness may legitimately fail. *)
let safety outcome =
  Result.bind (Consensus.Spec.check_validity outcome) (fun () ->
      Consensus.Spec.check_agreement Consensus.Spec.Nonuniform outcome)

(* Tally of pass/fail over a parameter sweep. *)
type tally = { mutable total : int; mutable failed : int; mutable note : string }

let tally () = { total = 0; failed = 0; note = "" }

let record t ok note =
  t.total <- t.total + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.note = "" then t.note <- note
  end

let finish_row ~id ~theorem ~expected t =
  let measured =
    if t.failed = 0 then Printf.sprintf "%d/%d runs conform" t.total t.total
    else
      Printf.sprintf "%d/%d runs FAILED (first: %s)" t.failed t.total t.note
  in
  { id; theorem; expected; measured; pass = t.failed = 0 }

(* Every randomized experiment derives its seed list from [seed_base]
   so the CLI's [--seed] is honored uniformly; the default (0)
   reproduces the historical sweeps. *)
let seeds_of ?(seed_base = 0) ~quick () =
  List.map (( + ) seed_base) (if quick then [ 0; 1 ] else [ 0; 1; 2; 3 ])

(* ---------------------------------------------------------------- *)
(* Shared runs: one consensus run, one emulation check              *)
(* ---------------------------------------------------------------- *)

type algo =
  | Anuc
  | Mr_majority
  | Mr_sigma
  | Stack
  | Ct
  | Family of Quorum_family.t

let algo_name = function
  | Anuc -> "A_nuc"
  | Mr_majority -> "MR-majority"
  | Mr_sigma -> "MR-Sigma"
  | Stack -> "Stack"
  | Ct -> "CT-<>S"
  | Family fam -> Printf.sprintf "MR[%s]" (Quorum_family.name fam)

(* A consensus automaton, as [decide] drives and reads it. *)
module type DECIDER = sig
  include Sim.Automaton.S with type input = Consensus.Value.t

  val decision : state -> Consensus.Value.t option
  val decision_round : state -> int option
end

(* The automaton behind [algo] and the history it runs under: Omega
   paired with the quorum detector its proof assumes. CT reads <>S;
   MR over a family reads Omega alone, since its waits count senders
   against the family. *)
let protocol algo ?stab_time ~seed pattern : (module DECIDER) * Fd.Oracle.t =
  let open Fd.Oracle in
  let omega = omega ~seed ?stab_time pattern in
  match algo with
  | Anuc ->
    ((module Core.Anuc), pair omega (sigma_nu_plus ~seed ?stab_time pattern))
  | Stack ->
    ((module Core.Stack), pair omega (sigma_nu ~seed ?stab_time pattern))
  | Mr_majority ->
    ( (module Consensus.Mr.Majority),
      pair omega (sigma ~seed ?stab_time pattern) )
  | Mr_sigma ->
    ( (module Consensus.Mr.With_quorum),
      pair omega (sigma ~seed ?stab_time pattern) )
  | Ct -> ((module Consensus.Ct), eventually_strong ~seed ?stab_time pattern)
  | Family fam -> ((module (val Consensus.Mr.family fam)), omega)

type decision_run = {
  decisions : Consensus.Value.t option array;  (* every process, at the stop *)
  rounds : int list;  (* decision rounds of the correct deciders *)
  steps : int;
  all_decided : bool;  (* every correct process decided within the budget *)
  metrics : Sim.Runner.metrics;
}

(* One seeded, unrecorded run of [A] until every correct process has
   decided or [max_steps] ticks have passed. *)
let decide (module A : DECIDER) ?faults ~seed ~pattern ~fd ~proposals
    ~max_steps () =
  let module R = Sim.Runner.Make (A) in
  let correct = Sim.Failure_pattern.correct pattern in
  let run =
    R.exec ~seed ?faults ~record:false ~pattern ~fd ~inputs:proposals
      ~max_steps
      ~stop:(fun st _ ->
        Pset.for_all (fun p -> A.decision (st p) <> None) correct)
      ()
  in
  {
    decisions = Array.map A.decision run.R.states;
    rounds =
      List.filter_map
        (fun p -> A.decision_round run.R.states.(p))
        (Pset.elements correct);
    steps = run.R.step_count;
    all_decided = run.R.stopped_early;
    metrics = run.R.metrics;
  }

(* [algo] under [protocol]'s history, proposals alternating with the
   seed: the run behind E4, E5 and the B1, B2, B7 and B13 sweeps. *)
let measure ?faults ?stab_time algo ~pattern ~seed ~max_steps =
  let m, oracle = protocol algo ?stab_time ~seed pattern in
  decide m ?faults ~seed ~pattern ~fd:oracle.Fd.Oracle.query
    ~proposals:(fun p -> (p + seed) mod 2)
    ~max_steps ()

(* The Section 6.3 adversary family that E6 and B5 sweep: the two
   faulty processes crash late, Omega trusts them first and
   Sigma-nu+ gives them quorums of their own. Returns the consensus
   outcome with the run. *)
let adversarial_run (module V : DECIDER) ~seed =
  let pattern =
    Sim.Failure_pattern.make ~n:4 ~crashes:[ (2, 150); (3, 150) ]
  in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~seed ~prestab:Fd.Oracle.Omega_faulty_first
         ~stab_time:120 pattern)
      (Fd.Oracle.sigma_nu_plus ~seed ~faulty_mode:Fd.Oracle.Faulty_split
         ~stab_time:120 pattern)
  in
  let proposals p = if p < 2 then 0 else 1 in
  let d =
    decide (module V) ~seed ~pattern ~fd:oracle.Fd.Oracle.query ~proposals
      ~max_steps:8000 ()
  in
  ( Consensus.Spec.outcome ~pattern ~proposals
      ~decisions:(Array.get d.decisions),
    d )

(* Runs emulator [E] for every case and seed, reads its output at each
   recorded step as a detector history, and checks that history
   against the spec its theorem promises. A case is a failure pattern,
   the emulator's input, and the detector it samples for a seed. *)
let emulation_row (type i) ~id ~theorem ~expected
    (module E : Core.Separation.EMULATOR with type input = i) ~max_steps ~check
    ~seeds cases =
  let module R = Sim.Runner.Make (E) in
  let t = tally () in
  List.iter
    (fun (pattern, input, fd) ->
      List.iter
        (fun seed ->
          let run =
            R.exec ~seed ~pattern ~fd:(fd ~seed) ~inputs:(fun _ -> input)
              ~max_steps ()
          in
          let samples =
            Array.to_list run.R.steps
            |> List.map (fun s ->
                   ( s.R.pid,
                     s.R.time,
                     Sim.Fd_value.Quorum (E.output s.R.state_after) ))
          in
          let n = Sim.Failure_pattern.n pattern in
          match check pattern (Fd.History.of_samples ~n samples) with
          | Ok () -> record t true ""
          | Error v ->
            record t false (Format.asprintf "%a" Fd.Check.pp_violation v))
        seeds)
    cases;
  finish_row ~id ~theorem ~expected t

(* ---------------------------------------------------------------- *)
(* E1 / E2: T_{D -> Sigma-nu}                                        *)
(* ---------------------------------------------------------------- *)

(* The extraction simulates a witness algorithm under the detector
   that witness runs with (see [protocol]). *)
let witness_case algo ~crashes ~n =
  let pattern = Sim.Failure_pattern.make ~n ~crashes in
  ( pattern,
    (),
    fun ~seed ->
      (snd (protocol algo ~stab_time:60 ~seed pattern)).Fd.Oracle.query )

let e1_extract_sigma_nu ?(quick = false) ?(seed_base = 0) () =
  emulation_row ~id:"E1" ~theorem:"Thm 5.4: T_{D->Sigma-nu} necessity"
    ~expected:"emulated quorums satisfy Sigma-nu" (module Tx_anuc)
    ~max_steps:2600
    ~check:(Fd.Check.sigma_nu ~max_stab:2100)
    ~seeds:(seeds_of ~seed_base ~quick ())
    [
      witness_case Anuc ~n:4 ~crashes:[ (2, 30); (3, 50) ];
      witness_case Anuc ~n:4 ~crashes:[ (3, 40) ];
    ]

let e2_extract_sigma ?(quick = false) ?(seed_base = 0) () =
  emulation_row ~id:"E2" ~theorem:"Thm 5.8: same algorithm yields Sigma"
    ~expected:"uniform-consensus witness gives full Sigma" (module Tx_mr)
    ~max_steps:700
    ~check:(Fd.Check.sigma ~max_stab:560)
    ~seeds:(seeds_of ~seed_base ~quick ())
    [
      witness_case Mr_sigma ~n:4 ~crashes:[ (1, 30); (2, 30); (3, 30) ];
      witness_case Mr_sigma ~n:5 ~crashes:[ (0, 25); (4, 45) ];
    ]

let e3_boost ?(quick = false) ?(seed_base = 0) () =
  let case ~n ~crashes faulty_mode =
    let pattern = Sim.Failure_pattern.make ~n ~crashes in
    ( pattern,
      (),
      fun ~seed ->
        (Fd.Oracle.sigma_nu ~seed ~stab_time:80 ~faulty_mode pattern)
          .Fd.Oracle.query )
  in
  emulation_row ~id:"E3" ~theorem:"Thm 6.7: T_{Sigma-nu -> Sigma-nu+}"
    ~expected:"all four Sigma-nu+ clauses hold on emulated output"
    (module Core.T_sigma_plus) ~max_steps:700
    ~check:(Fd.Check.sigma_nu_plus ~max_stab:500)
    ~seeds:(seeds_of ~seed_base ~quick ())
    [
      case ~n:4 ~crashes:[ (2, 30); (3, 60) ] Fd.Oracle.Faulty_split;
      case ~n:5 ~crashes:[ (3, 40); (4, 60) ] Fd.Oracle.Faulty_arbitrary;
    ]

(* ---------------------------------------------------------------- *)
(* E4 / E5: consensus sweeps                                         *)
(* ---------------------------------------------------------------- *)

let consensus_sweep ~id ~theorem ~expected algo ~ns ~seeds ~max_steps =
  let t = tally () in
  List.iter
    (fun n ->
      List.iter
        (fun tt ->
          List.iter
            (fun seed ->
              let pattern = random_pattern ~seed ~n ~t:tt in
              let d = measure algo ~pattern ~seed ~max_steps in
              let outcome =
                Consensus.Spec.outcome ~pattern
                  ~proposals:(fun p -> (p + seed) mod 2)
                  ~decisions:(Array.get d.decisions)
              in
              match Consensus.Spec.check Consensus.Spec.Nonuniform outcome with
              | Ok () -> record t true ""
              | Error e ->
                record t false
                  (Printf.sprintf "n=%d t=%d seed=%d: %s" n tt seed e))
            seeds)
        (List.init (n - 1) (fun i -> i + 1)))
    ns;
  finish_row ~id ~theorem ~expected t

let e4_anuc ?(quick = false) ?(seed_base = 0) () =
  consensus_sweep ~id:"E4" ~theorem:"Thm 6.27: A_nuc with (Omega, Sigma-nu+)"
    ~expected:"termination, validity, NU agreement in every E_t" Anuc
    ~ns:(if quick then [ 4 ] else [ 3; 4; 5 ])
    ~seeds:(seeds_of ~seed_base ~quick ()) ~max_steps:6000

let e5_stack ?(quick = false) ?(seed_base = 0) () =
  consensus_sweep ~id:"E5"
    ~theorem:"Thm 6.28: stack solves NU consensus from (Omega, Sigma-nu)"
    ~expected:"termination, validity, NU agreement in every E_t" Stack
    ~ns:[ 4 ]
    ~seeds:(seeds_of ~seed_base ~quick ()) ~max_steps:9000

(* ---------------------------------------------------------------- *)
(* E6: contamination                                                 *)
(* ---------------------------------------------------------------- *)

let e6_contamination ?(quick = false) ?(seed_base = 0) () =
  let o = Core.Scenario.contamination_naive_mr () in
  let naive_broken =
    o.Core.Scenario.agreement_violated
    && Result.is_ok o.Core.Scenario.history_valid
  in
  (* A_nuc under the adversary family *)
  let runs = if quick then 6 else 20 in
  let anuc_violations =
    List.init runs (fun i -> seed_base + i)
    |> List.filter (fun seed ->
           let outcome, _ = adversarial_run (module Core.Anuc) ~seed in
           Result.is_error
             (Consensus.Spec.check Consensus.Spec.Nonuniform outcome))
    |> List.length
  in
  {
    id = "E6";
    theorem = "Sec 6.3: contamination scenario";
    expected = "naive MR+Sigma-nu violates NU agreement; A_nuc does not";
    measured =
      Printf.sprintf
        "naive: correct p0/p1 decided %s/%s under a legal history; A_nuc: \
         %d/%d adversarial runs violated"
        (Format.asprintf "%a" Consensus.Value.pp_opt
           o.Core.Scenario.decisions.(0))
        (Format.asprintf "%a" Consensus.Value.pp_opt
           o.Core.Scenario.decisions.(1))
        anuc_violations runs;
    pass = naive_broken && anuc_violations = 0;
  }

(* ---------------------------------------------------------------- *)
(* E7 / E8: separation                                               *)
(* ---------------------------------------------------------------- *)

let e7_sigma_scratch ?(quick = false) ?(seed_base = 0) () =
  let cases =
    if quick then [ (5, 2, [ (0, 20); (4, 50) ]) ]
    else
      [
        (3, 1, [ (2, 35) ]);
        (5, 2, [ (0, 20); (4, 50) ]);
        (7, 3, [ (1, 15); (3, 30); (6, 60) ]);
      ]
  in
  emulation_row ~id:"E7" ~theorem:"Thm 7.1 IF: Sigma from scratch, t < n/2"
    ~expected:"round-based n-t algorithm emulates Sigma"
    (module Core.Separation.Sigma_scratch) ~max_steps:600
    ~check:(Fd.Check.sigma ~max_stab:450)
    ~seeds:(seeds_of ~seed_base ~quick ())
    (List.map
       (fun (n, tt, crashes) ->
         ( Sim.Failure_pattern.make ~n ~crashes,
           tt,
           fun ~seed:_ _ _ -> Sim.Fd_value.Unit ))
       cases)

let e8_attack ?(quick = false) () =
  let module Atk = Core.Separation.Attack (Core.Separation.Sigma_scratch) in
  let t = tally () in
  let cases = if quick then [ (4, 2); (6, 3) ] else [ (4, 2); (4, 3); (5, 3); (6, 3); (8, 4) ] in
  List.iter
    (fun (n, tt) ->
      match Atk.run ~n ~t:tt ~inputs:(fun _ -> tt) () with
      | Ok o ->
        record t
          (o.Atk.disjoint
          && Pset.subset o.Atk.quorum_a o.Atk.part_a
          && Pset.subset o.Atk.quorum_b o.Atk.part_b)
          (Printf.sprintf "n=%d t=%d quorums intersect" n tt)
      | Error e -> record t false (Printf.sprintf "n=%d t=%d: %s" n tt e))
    cases;
  (* below n/2 the construction must refuse *)
  (match Atk.run ~n:4 ~t:1 ~inputs:(fun _ -> 1) () with
  | Error _ -> record t true ""
  | Ok _ -> record t false "attack ran below n/2");
  finish_row ~id:"E8"
    ~theorem:"Thm 7.1 ONLY IF: two-run attack, t >= n/2"
    ~expected:"disjoint quorums inside A and B; inapplicable below n/2" t

(* ---------------------------------------------------------------- *)
(* E9: run merging                                                   *)
(* ---------------------------------------------------------------- *)

(* Lemma 2.2 applied as in Lemma 5.3: drive two deciding runs of the
   quorum-driven MR algorithm with disjoint participants (each side's
   quorums stay on its side), merge them, replay the merged schedule,
   and observe a single run in which processes of the two sides have
   decided differently. *)
let e9_merge ?quick:_ ?(step_budget = 400) () =
  let n = 4 in
  let part_a = Pset.of_list [ 0; 1 ] and part_b = Pset.of_list [ 2; 3 ] in
  let pattern = Sim.Failure_pattern.failure_free ~n in
  let fd p _ =
    let side = if Pset.mem p part_a then part_a else part_b in
    Sim.Fd_value.Pair
      (Sim.Fd_value.Leader (Pset.min_elt side), Sim.Fd_value.Quorum side)
  in
  let inputs p = if Pset.mem p part_a then 0 else 1 in
  (* A side that fails to decide within the budget is reported as a
     failed row, never as an exception: one bad row must not kill the
     whole experiment table (or the CI bench job) the way the old
     [failwith "side did not decide"] did. *)
  let drive side =
    let s = Mrq_runner.Session.create ~pattern ~fd ~inputs () in
    let members = Pset.elements side in
    let rec go i =
      if i > step_budget then
        Error
          (Format.asprintf "side %a did not decide within %d steps" Pset.pp
             side step_budget)
      else if
        List.for_all
          (fun p ->
            Consensus.Mr.With_quorum.decision (Mrq_runner.Session.state s p)
            <> None)
          members
      then Ok (Mrq_runner.Session.finish s)
      else begin
        Mrq_runner.Session.step s (List.nth members (i mod List.length members));
        go (i + 1)
      end
    in
    go 0
  in
  match (drive part_a, drive part_b) with
  | Error e, _ | _, Error e ->
    {
      id = "E9";
      theorem = "Lemma 2.2: run merging (as used by Lemma 5.3)";
      expected =
        "merged run applicable, per-process states preserved, and the two \
         sides decide differently in one run";
      measured = "no merge attempted: " ^ e;
      pass = false;
    }
  | Ok run_a, Ok run_b ->
  let merged =
    Mrq_runner.merge_traces
      (Array.to_list run_a.Mrq_runner.steps)
      (Array.to_list run_b.Mrq_runner.steps)
  in
  match Mrq_runner.replay ~n ~inputs merged with
  | Error e ->
    {
      id = "E9";
      theorem = "Lemma 2.2: run merging";
      expected = "merged schedule applicable; states preserved";
      measured = "replay failed: " ^ e;
      pass = false;
    }
  | Ok states ->
    let d p = Consensus.Mr.With_quorum.decision states.(p) in
    let states_match =
      List.for_all
        (fun p ->
          d p
          = Consensus.Mr.With_quorum.decision
              (if Pset.mem p part_a then run_a.Mrq_runner.states.(p)
               else run_b.Mrq_runner.states.(p)))
        (Pid.all ~n)
    in
    let split = d 0 = Some 0 && d 2 = Some 1 in
    {
      id = "E9";
      theorem = "Lemma 2.2: run merging (as used by Lemma 5.3)";
      expected =
        "merged run applicable, per-process states preserved, and the two \
         sides decide differently in one run";
      measured =
        Printf.sprintf
          "replay ok; states preserved: %b; decisions p0=%s p2=%s"
          states_match
          (Format.asprintf "%a" Consensus.Value.pp_opt (d 0))
          (Format.asprintf "%a" Consensus.Value.pp_opt (d 2));
      pass = states_match && split;
    }

(* A legal partitioned (Omega, Sigma-nu+) history: each side's leaders
   and quorums stay on its side. Valid because the faulty side's
   quorums consist of faulty processes only. *)
let e10_not_uniform ?quick:_ () =
  let n = 4 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (2, 400); (3, 400) ] in
  let side p = if p < 2 then Pset.of_list [ 0; 1 ] else Pset.of_list [ 2; 3 ] in
  let fd p _t =
    Sim.Fd_value.Pair
      ( Sim.Fd_value.Leader (Pset.min_elt (side p)),
        Sim.Fd_value.Quorum (side p) )
  in
  let proposals p = if p < 2 then 0 else 1 in
  let run =
    Anuc_runner.exec ~seed:0 ~pattern ~fd ~inputs:proposals ~max_steps:3000
      ~stop:(fun st _ ->
        List.for_all (fun p -> Core.Anuc.decision (st p) <> None)
          [ 0; 1; 2; 3 ])
      ()
  in
  let outcome =
    Consensus.Spec.outcome ~pattern ~proposals ~decisions:(fun p ->
        Core.Anuc.decision run.Anuc_runner.states.(p))
  in
  let nonuniform_ok =
    Result.is_ok (Consensus.Spec.check Consensus.Spec.Nonuniform outcome)
  in
  let uniform_violated =
    Result.is_error
      (Consensus.Spec.check_agreement Consensus.Spec.Uniform outcome)
  in
  (* the driving history must be a legal Sigma-nu+ history *)
  let samples =
    Array.to_list run.Anuc_runner.steps
    |> List.map (fun s ->
           (s.Anuc_runner.pid, s.Anuc_runner.time, s.Anuc_runner.fd))
  in
  let h = Fd.History.of_samples ~n samples in
  let history_ok =
    Result.is_ok
      (Fd.Check.sigma_nu_plus
         ~max_stab:(Fd.History.last_time h)
         pattern
         (Fd.History.project_snd h))
  in
  let d p =
    Format.asprintf "%a" Consensus.Value.pp_opt
      (Core.Anuc.decision run.Anuc_runner.states.(p))
  in
  {
    id = "E10";
    theorem = "A_nuc is strictly nonuniform";
    expected =
      "under a legal partitioned Sigma-nu+ history the faulty side \
       decides differently: uniform agreement fails, nonuniform holds";
    measured =
      Printf.sprintf
        "decisions %s/%s (correct) vs %s/%s (faulty); nonuniform ok: %b; \
         uniform violated: %b; history legal: %b"
        (d 0) (d 1) (d 2) (d 3) nonuniform_ok uniform_violated history_ok;
    pass = nonuniform_ok && uniform_violated && history_ok;
  }

(* ---------------------------------------------------------------- *)
(* E11: bounded model checking (lib/mc)                               *)
(* ---------------------------------------------------------------- *)

module Mc_naive = Mc.Make (Consensus.Mr.With_quorum)
module Mc_anuc = Mc.Make (Core.Anuc)

(* The universe of every exploration (mc here, fuzz in E13, and
   `nuc_cli mc` / `fuzz`): the last [t] pids are faulty, propose the
   contaminating value 1 and crash one step past [bound], so the
   detector clauses treat them as faulty while every schedule up to
   the bound may still step them. The model-checking rows run E_1(3),
   except the grid rows of E16, which need a 2x2 tiling. *)
let universe ~n ~t ~bound =
  let faulty = Pset.of_list (List.init t (fun i -> n - 1 - i)) in
  let crashes = Pset.fold (fun p l -> (p, bound + 1) :: l) faulty [] in
  let pattern = Sim.Failure_pattern.make ~n ~crashes in
  let proposals p = if Pset.mem p faulty then 1 else 0 in
  (faulty, pattern, proposals)

(* Exhaustive bounded verification of A_nuc on E_1(n) under the
   Sigma-nu+ contamination family, or under its lossy-link variant
   (optionally generalized over a quorum family; [None] is the
   pre-family construction verbatim). *)
let mc_verify_anuc ?reduction ?(lossy = false) ?jobs ?(n = 3) ?quorum
    ?max_states ~depth () =
  let faulty, pattern, proposals = universe ~n ~t:1 ~bound:depth in
  let menu =
    (if lossy then Mc.Menu.lossy else Mc.Menu.contamination)
      ~plus:true ?quorum ~n ~faulty ()
  in
  let report =
    Mc_anuc.run ?reduction ?jobs ?max_states ~n ~menu ~depth
      ~inputs:proposals ~props:
        (Mc_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
           ~flavour:Consensus.Spec.Nonuniform ~pattern)
      ~stop:
        (Mc_anuc.decided_stop ~decision:Core.Anuc.decision
           ~scope:(Sim.Failure_pattern.correct pattern))
      ()
  in
  (Mc.Menu.validate ~pattern menu, report)

(* Unlike the A_nuc verification, the depth-32+ lossy attack cannot
   afford the unbounded drop alphabet (the lossy state space at that
   depth dwarfs [max_states]); a loss budget of one keeps the
   exploration exhaustive for every schedule with at most one network
   drop — which still strictly contains the loss-free space the
   Section 6.3 counterexample lives in. *)
let naive_lossy_drop_budget = 1

(* Exhaustive search for the naive-Sigma-nu contamination violation:
   MR with detector-supplied quorums driven by a legal Sigma-nu menu,
   or its lossy-link variant. Returns the report plus the independent
   certificates of any found counterexample (replay applicability,
   history legality). *)
let mc_attack_naive ?reduction ?(lossy = false) ~depth () =
  let n = 3 in
  let faulty, pattern, proposals = universe ~n ~t:1 ~bound:depth in
  let menu =
    (if lossy then Mc.Menu.lossy else Mc.Menu.contamination) ~n ~faulty ()
  in
  let report =
    Mc_naive.run ?reduction ~n ~menu ~depth
      ?max_drops:(if lossy then Some naive_lossy_drop_budget else None)
      ~inputs:proposals
      ~props:
        (Mc_naive.consensus_props
           ~decision:Consensus.Mr.With_quorum.decision ~proposals
           ~flavour:Consensus.Spec.Nonuniform ~pattern)
      ~stop:
        (Mc_naive.decided_stop ~decision:Consensus.Mr.With_quorum.decision
           ~scope:(Sim.Failure_pattern.correct pattern))
      ()
  in
  let certified =
    Option.map
      (fun cx ->
        ( Mc_naive.replay_counterexample ~n ~inputs:proposals cx,
          Mc.history_legal ~kind:menu.Mc.Menu.kind ~pattern
            cx.Mc_naive.cx_samples ))
      report.Mc_naive.violation
  in
  (Mc.Menu.validate ~pattern menu, report, certified)

(* The two verdicts of the Section 6.3 dichotomy: A_nuc's legal menu is
   exhausted with no violation; the naive baseline falls to a
   NU-agreement counterexample that replays and samples a legal
   history. *)
let anuc_clean (legal, r) =
  Result.is_ok legal
  && r.Mc_anuc.violation = None
  && not r.Mc_anuc.stats.Mc.truncated

let naive_falls (legal, r, certified) =
  Result.is_ok legal
  &&
  match (r.Mc_naive.violation, certified) with
  | Some cx, Some (replay, history) ->
    cx.Mc_naive.cx_property = "nonuniform agreement"
    && Result.is_ok replay && Result.is_ok history
  | _ -> false

let anuc_mc_depth ~quick = if quick then 9 else 11
let naive_mc_depth ~quick = if quick then 32 else 34

let e11_model_check ?(quick = false) () =
  let ((_, anuc_r) as anuc) = mc_verify_anuc ~depth:(anuc_mc_depth ~quick) () in
  let ((_, naive_r, _) as naive) =
    mc_attack_naive ~depth:(naive_mc_depth ~quick) ()
  in
  let anuc_ok =
    anuc_clean anuc
    (* deduplication must be load-bearing for the claim of exhaustion *)
    && anuc_r.Mc_anuc.stats.Mc.distinct_states
       < anuc_r.Mc_anuc.stats.Mc.transitions
  in
  let measured =
    match naive_r.Mc_naive.violation with
    | None -> "naive baseline: no violation found (UNEXPECTED)"
    | Some cx ->
      Printf.sprintf
        "A_nuc: %d states / %d transitions exhausted to depth %d, 0 \
         violations; naive: %d-step NU-agreement counterexample found \
         (%d states), replay + Sigma-nu legality certified"
        anuc_r.Mc_anuc.stats.Mc.distinct_states
        anuc_r.Mc_anuc.stats.Mc.transitions (anuc_mc_depth ~quick)
        (List.length cx.Mc_naive.cx_steps)
        naive_r.Mc_naive.stats.Mc.distinct_states
  in
  {
    id = "E11";
    theorem = "Sec 6.3 via bounded model checking";
    expected =
      "exhaustive schedule exploration verifies A_nuc and finds the naive \
       Sigma-nu violation";
    measured;
    pass = anuc_ok && naive_falls naive;
  }

(* ---------------------------------------------------------------- *)
(* E12: adversarial network faults (Sim.Faults)                      *)
(* ---------------------------------------------------------------- *)

(* The lossy-link variants of the two E11 explorations: identical
   detector menus, plus a network adversary that may drop any
   deliverable cross-process message. Drop moves consume depth, so
   the A_nuc bound sits lower than E11's for comparable run time. *)
let anuc_lossy_mc_depth ~quick = if quick then 7 else 8
let naive_lossy_mc_depth ~quick = if quick then 32 else 33

let e12_faults ?(quick = false) ?(seed_base = 0) () =
  (* (a) randomized A_nuc runs under the full fault menu — drops,
     duplication, reordering, and a partition that heals before the
     detectors stabilize: consensus must hold end to end and the
     recorded trace must still pass conformance (replayed under the
     run's own fault spec). *)
  let t = tally () in
  let n = 4 in
  let runs = if quick then 6 else 16 in
  List.iter
    (fun seed ->
      let pattern = random_pattern ~seed ~n ~t:1 in
      let correct = Sim.Failure_pattern.correct pattern in
      let proposals p = (p + seed) mod 2 in
      let _, oracle = protocol Anuc ~stab_time:60 ~seed pattern in
      let faults =
        Sim.Faults.make ~drop:0.1 ~dup:0.1 ~reorder:3
          ~partitions:
            [
              {
                Sim.Faults.from_t = 20;
                until_t = 55;
                groups = [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 2; 3 ] ];
              };
            ]
          ~seed ()
      in
      let run =
        Anuc_runner.exec ~seed ~faults ~pattern ~fd:oracle.Fd.Oracle.query
          ~inputs:proposals ~max_steps:8000
          ~stop:(fun st _ ->
            Pset.for_all (fun p -> Core.Anuc.decision (st p) <> None) correct)
          ()
      in
      let outcome =
        Consensus.Spec.outcome ~pattern ~proposals ~decisions:(fun p ->
            Core.Anuc.decision run.Anuc_runner.states.(p))
      in
      (* Safety only: a dropped message is never retransmitted, so a
         loss on the critical path legitimately stalls liveness (the
         degradation B7 quantifies) — but no fault may ever induce a
         validity or NU-agreement violation. *)
      (match safety outcome with
      | Ok () -> record t true ""
      | Error e ->
        record t false (Printf.sprintf "seed %d: %s" seed e));
      match
        Anuc_runner.conformance ~fd:oracle.Fd.Oracle.query ~inputs:proposals
          run
      with
      | Ok () -> record t true ""
      | Error e ->
        record t false (Printf.sprintf "seed %d: conformance: %s" seed e))
    (List.init runs (fun i -> seed_base + i));
  (* (b) the Section 6.3 dichotomy survives the lossy network model:
     exhaustive exploration still clears A_nuc and still convicts the
     naive baseline, counterexample certified as in E11. *)
  let ((_, anuc_r) as anuc) =
    mc_verify_anuc ~lossy:true ~depth:(anuc_lossy_mc_depth ~quick) ()
  in
  let ((_, naive_r, _) as naive) =
    mc_attack_naive ~lossy:true ~depth:(naive_lossy_mc_depth ~quick) ()
  in
  let measured =
    Printf.sprintf
      "A_nuc: %d/%d faulty runs safe+conformant%s; lossy mc: A_nuc %d states \
       exhausted to depth %d, 0 violations; naive: %s"
      (t.total - t.failed) t.total
      (if t.failed = 0 then "" else Printf.sprintf " (first: %s)" t.note)
      anuc_r.Mc_anuc.stats.Mc.distinct_states
      (anuc_lossy_mc_depth ~quick)
      (match naive_r.Mc_naive.violation with
      | None -> "no violation found (UNEXPECTED)"
      | Some cx ->
        Printf.sprintf "%d-step certified NU-agreement counterexample"
          (List.length cx.Mc_naive.cx_steps))
  in
  {
    id = "E12";
    theorem = "Sim.Faults: consensus under an adversarial network";
    expected =
      "A_nuc keeps validity + NU agreement under drops/dups/reordering and \
       healed partitions; the naive Sigma-nu baseline still falls over \
       lossy links";
    measured;
    pass = t.failed = 0 && anuc_clean anuc && naive_falls naive;
  }

(* ---------------------------------------------------------------- *)
(* E13: randomized exploration beyond the checker's horizon          *)
(* ---------------------------------------------------------------- *)

module Ex_naive = Explore.Make (Consensus.Mr.With_quorum)
module Ex_anuc = Explore.Make (Core.Anuc)

(* E13 samples E_2(5), the universe the model checker cannot close:
   E11's exhaustive horizon is E_1(3) around depth 34, and at n = 5
   the per-step branching factor puts every interesting depth far out
   of reach — so the Section 6.3 dichotomy at this size is sampled
   (lib/explore), not enumerated. The faulty processes never crash
   within the step bound (contamination needs them alive and
   deciding). *)

let fuzz_max_steps ~n = 18 * n

let fuzz_attack_naive ?quorum ~seed ~runs ~n ~t () =
  let max_steps = fuzz_max_steps ~n in
  let faulty, pattern, proposals = universe ~n ~t ~bound:max_steps in
  let menu = Mc.Menu.contamination ?quorum ~n ~faulty () in
  let props =
    Ex_naive.M.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    Ex_naive.M.decided_stop ~decision:Consensus.Mr.With_quorum.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  ( Mc.Menu.validate ~pattern menu,
    Ex_naive.fuzz ~algo:"naive-sn" ~max_steps ~stop
      ~decided:(fun st -> Consensus.Mr.With_quorum.decision st <> None)
      ~seed ~runs ~n ~menu ~pattern ~inputs:proposals ~props () )

(* A_nuc under the same sampler, swarm mode: menus, loss budgets,
   stabilization points and samplers all rotate per batch. *)
let fuzz_survive_anuc ~seed ~runs ~n ~t =
  let max_steps = fuzz_max_steps ~n in
  let faulty, pattern, proposals = universe ~n ~t ~bound:max_steps in
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let swarm =
    {
      Explore.sw_menus =
        [
          menu;
          Mc.Menu.lossy ~plus:true ~n ~faulty ();
          Mc.Menu.omega_sigma_nu_plus ~n ~faulty;
        ];
      sw_budgets = [ 0; 1; 2 ];
      sw_stabs = [ max_steps / 3; 2 * max_steps / 3; max_steps ];
      sw_samplers = [ Explore.Uniform; Pct 2; Pct 3; Pct 4 ];
    }
  in
  let props =
    Ex_anuc.M.consensus_props ~decision:Core.Anuc.decision ~proposals
      ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    Ex_anuc.M.decided_stop ~decision:Core.Anuc.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  ( Mc.Menu.validate ~pattern menu,
    Ex_anuc.fuzz ~algo:"anuc" ~swarm ~max_steps ~stop
      ~decided:(fun st -> Core.Anuc.decision st <> None)
      ~seed ~runs ~n ~menu ~pattern ~inputs:proposals ~props () )

(* Seed 7 lands the n = 5 naive violation within about 800 uniform
   runs; EXPERIMENTS.md E13 records the cross-seed robustness sweep
   (every seed 1..12 finds and shrinks it to <= 40 moves). *)
let e13_fuzz_seed = 7
let e13_naive_runs ~quick = if quick then 1_000 else 10_000
let e13_anuc_runs ~quick = if quick then 1_000 else 50_000

let e13_fuzz ?(quick = false) ?(seed_base = 0) () =
  let seed = e13_fuzz_seed + seed_base in
  let naive_legal, naive_r =
    fuzz_attack_naive ~seed ~runs:(e13_naive_runs ~quick) ~n:5 ~t:2 ()
  in
  let anuc_legal, anuc_r =
    fuzz_survive_anuc ~seed ~runs:(e13_anuc_runs ~quick) ~n:5 ~t:2
  in
  let naive_ok =
    Result.is_ok naive_legal
    &&
    match naive_r.Ex_naive.violation with
    | None -> false
    | Some v ->
      v.Ex_naive.v_property = "nonuniform agreement"
      && v.Ex_naive.v_replay_ok && v.Ex_naive.v_history_ok
      && List.length v.Ex_naive.v_shrunk <= 40
      && List.length v.Ex_naive.v_shrunk < List.length v.Ex_naive.v_moves
  in
  let anuc_ok =
    Result.is_ok anuc_legal && anuc_r.Ex_anuc.violation = None
  in
  let measured =
    Printf.sprintf
      "naive: %s; A_nuc: no violation in %d swarm runs (%d distinct \
       states, %d decision depths)"
      (match naive_r.Ex_naive.violation with
      | None -> "no violation found (UNEXPECTED)"
      | Some v ->
        Printf.sprintf
          "NU-agreement violation at n=5 run %d, shrunk %d -> %d moves, \
           replay %s, Sigma-nu legality %s"
          v.Ex_naive.v_run
          (List.length v.Ex_naive.v_moves)
          (List.length v.Ex_naive.v_shrunk)
          (if v.Ex_naive.v_replay_ok then "OK" else "FAILED")
          (if v.Ex_naive.v_history_ok then "OK" else "FAILED"))
      anuc_r.Ex_anuc.runs anuc_r.Ex_anuc.totals.Explore.distinct_states
      anuc_r.Ex_anuc.totals.Explore.decision_depths
  in
  {
    id = "E13";
    theorem = "Sec 6.3 beyond the mc horizon (randomized exploration)";
    expected =
      "fuzzing finds + shrinks + certifies the naive Sigma-nu violation at \
       n=5 where mc cannot reach; A_nuc survives the same swarm budget";
    measured;
    pass = naive_ok && anuc_ok;
  }

(* ---------------------------------------------------------------- *)
(* E14: happens-before DPOR (Mc reduction = Dpor)                    *)
(* ---------------------------------------------------------------- *)

(* The reduction is state-preserving: it prunes redundant transitions
   (swaps of independent adjacent moves), never states or verdicts.
   That makes three checks meaningful: (a) the E11 exhaustion pushed
   deeper than the unreduced checker affords, (b) a differential pin
   at a depth both can reach — verdict and distinct-state counts must
   be equal, with the reduced run taking no more transitions — and
   (c) the Section 6.3 counterexample still found and certified with
   the reduction on. *)
let dpor_mc_depth ~quick = if quick then 11 else 13
let dpor_diff_depth ~quick = if quick then 7 else 9

(* Depth 13 holds 2,118,400 distinct states, past mc's default budget
   of 2e6; the deep run gets room to finish. *)
let dpor_max_states = 3_000_000

let e14_dpor ?(quick = false) () =
  let deep_depth = dpor_mc_depth ~quick in
  let ((_, dpor_r) as deep) =
    mc_verify_anuc ~reduction:Mc.Dpor ~max_states:dpor_max_states
      ~depth:deep_depth ()
  in
  let d = dpor_diff_depth ~quick in
  let _, none_r = mc_verify_anuc ~reduction:Mc.No_reduction ~depth:d () in
  let _, dpor_d = mc_verify_anuc ~reduction:Mc.Dpor ~depth:d () in
  let diff_ok =
    none_r.Mc_anuc.violation = None
    && dpor_d.Mc_anuc.violation = None
    && none_r.Mc_anuc.stats.Mc.distinct_states
       = dpor_d.Mc_anuc.stats.Mc.distinct_states
    && dpor_d.Mc_anuc.stats.Mc.transitions
       <= none_r.Mc_anuc.stats.Mc.transitions
  in
  let naive_ok =
    naive_falls
      (mc_attack_naive ~reduction:Mc.Dpor ~depth:(naive_mc_depth ~quick) ())
  in
  let measured =
    Printf.sprintf
      "A_nuc dpor: %d states / %d transitions exhausted to depth %d (%d \
       races, %d backtracks, %d self-loops); differential depth %d: %d = %d \
       states, %d <= %d transitions; naive cx under dpor: %s"
      dpor_r.Mc_anuc.stats.Mc.distinct_states
      dpor_r.Mc_anuc.stats.Mc.transitions deep_depth
      dpor_r.Mc_anuc.stats.Mc.races dpor_r.Mc_anuc.stats.Mc.backtracks
      dpor_r.Mc_anuc.stats.Mc.self_loops d
      dpor_d.Mc_anuc.stats.Mc.distinct_states
      none_r.Mc_anuc.stats.Mc.distinct_states
      dpor_d.Mc_anuc.stats.Mc.transitions
      none_r.Mc_anuc.stats.Mc.transitions
      (if naive_ok then "found + certified" else "MISSING")
  in
  {
    id = "E14";
    theorem = "Sec 6.3 exhaustion under happens-before DPOR";
    expected =
      "dpor reduction reaches a deeper A_nuc exhaustion, preserves verdicts \
       and distinct states at shared depth, and keeps the naive \
       counterexample certified";
    measured;
    pass = anuc_clean deep && diff_ok && naive_ok;
  }

(* ---------------------------------------------------------------- *)
(* E16: the Section 6.3 differential across quorum families          *)
(* ---------------------------------------------------------------- *)

(* One configuration per shipped family, each chosen so the
   contamination channel is open: majority and the weighted votes at
   n = 3 (their menus offer two-member quorums avoiding the faulty
   process), supermajority f = 1 and the 2x2 grid at n = 4 — at
   n = 3, t = 1 every Sigma-nu-legal super:1 quorum contains the
   faulty process (threshold n, and the escapes carry F), which
   closes the channel entirely; see the E16 narrative in
   EXPERIMENTS.md. *)
let e16_families =
  [
    (Quorum_family.majority, 3);
    (Quorum_family.weighted ~weights:[ 2; 1; 1 ], 3);
    (Quorum_family.supermajority ~f:1, 4);
    (Quorum_family.grid ~rows:2 ~cols:2 (), 4);
  ]

let e16_fuzz_runs ~quick = if quick then 500 else 2000

let e16_anuc_depth ~n ~quick =
  if n <= 3 then if quick then 7 else 9 else if quick then 5 else 7

(* The E11/E13 differential, per family: the naive substitution falls
   under the family's contamination menu (randomized search, shrunk
   and certified by replay + Sigma-nu legality), while A_nuc exhausts
   the same adversary's schedule space clean. *)
let e16_quorum ?(quick = false) ?(seed_base = 0) () =
  let t = tally () in
  List.iter
    (fun (fam, n) ->
      let label = Printf.sprintf "%s(n=%d)" (Quorum_family.name fam) n in
      let naive_legal, naive_r =
        fuzz_attack_naive ~quorum:fam ~seed:(e13_fuzz_seed + seed_base)
          ~runs:(e16_fuzz_runs ~quick) ~n ~t:1 ()
      in
      let naive_ok =
        Result.is_ok naive_legal
        &&
        match naive_r.Ex_naive.violation with
        | Some v ->
          v.Ex_naive.v_property = "nonuniform agreement"
          && v.Ex_naive.v_replay_ok && v.Ex_naive.v_history_ok
        | None -> false
      in
      record t naive_ok
        (Printf.sprintf "%s: naive did not fall (certified)" label);
      let depth = e16_anuc_depth ~n ~quick in
      let anuc_ok = anuc_clean (mc_verify_anuc ~n ~quorum:fam ~depth ()) in
      record t anuc_ok
        (Printf.sprintf "%s: A_nuc not exhausted clean at depth %d" label
           depth))
    e16_families;
  finish_row ~id:"E16" ~theorem:"Sec 6.3 across quorum families"
    ~expected:
      "under every family's contamination menu the naive substitution \
       falls (shrunk + certified) and A_nuc exhausts clean"
    t

let e_rows =
  [
    ("e1", fun ~quick ~seed_base -> e1_extract_sigma_nu ~quick ~seed_base ());
    ("e2", fun ~quick ~seed_base -> e2_extract_sigma ~quick ~seed_base ());
    ("e3", fun ~quick ~seed_base -> e3_boost ~quick ~seed_base ());
    ("e4", fun ~quick ~seed_base -> e4_anuc ~quick ~seed_base ());
    ("e5", fun ~quick ~seed_base -> e5_stack ~quick ~seed_base ());
    ("e6", fun ~quick ~seed_base -> e6_contamination ~quick ~seed_base ());
    ("e7", fun ~quick ~seed_base -> e7_sigma_scratch ~quick ~seed_base ());
    ("e8", fun ~quick ~seed_base:_ -> e8_attack ~quick ());
    ("e9", fun ~quick ~seed_base:_ -> e9_merge ~quick ());
    ("e10", fun ~quick ~seed_base:_ -> e10_not_uniform ~quick ());
    ("e11", fun ~quick ~seed_base:_ -> e11_model_check ~quick ());
    ("e12", fun ~quick ~seed_base -> e12_faults ~quick ~seed_base ());
    ("e13", fun ~quick ~seed_base -> e13_fuzz ~quick ~seed_base ());
    ("e14", fun ~quick ~seed_base:_ -> e14_dpor ~quick ());
    ("e16", fun ~quick ~seed_base -> e16_quorum ~quick ~seed_base ());
  ]

let all ?(quick = false) ?(seed_base = 0) () =
  List.map (fun (_, row) -> row ~quick ~seed_base) e_rows

(* ---------------------------------------------------------------- *)
(* B-tables                                                          *)
(* ---------------------------------------------------------------- *)

type latency_row = {
  algorithm : string;
  n : int;
  t : int;
  runs : int;
  decided : int;
  avg_rounds : float;
  avg_steps : float;
  avg_msgs : float;
  avg_hwm : float;
}

(* The Stack rows measure a different stack (raw detectors plus the
   emulation layer), so they get a sub-heading of their own. *)
let latency_spec =
  Report.Table.(
    make
      [
        str "algorithm" "algorithm" 12 (fun r -> r.algorithm);
        int "n" "n" 3 (fun r -> r.n);
        int "t" "t" 3 (fun r -> r.t);
        int "runs" "runs" 5 (fun r -> r.runs);
        int "decided" "decided" 8 (fun r -> r.decided);
        float "avg_rounds" "rounds" 8 2 (fun r -> r.avg_rounds);
        float "avg_steps" "steps" 10 1 (fun r -> r.avg_steps);
        float "avg_msgs" "messages" 10 1 (fun r -> r.avg_msgs);
        float "avg_mailbox_hwm" "mbox_hwm" 9 1 (fun r -> r.avg_hwm);
      ]
    |> with_heading (fun r ->
           if r.algorithm = "Stack" then
             Some
               "Stack (consensus from raw (Omega, Sigma-nu), incl. the \
                emulation layer):"
           else None))

(* The Stack budget covers its emulation layer. *)
let budget = function Stack -> 9000 | _ -> 6000

let latency ?faults algo ~n ~t ~seeds =
  let runs =
    List.map
      (fun seed ->
        measure ?faults algo ~pattern:(random_pattern ~seed ~n ~t) ~seed
          ~stab_time:60 ~max_steps:(budget algo))
      seeds
  in
  let rounds = List.concat_map (fun d -> d.rounds) runs in
  let count = List.length runs in
  {
    algorithm = algo_name algo;
    n;
    t;
    runs = count;
    decided = List.length (List.filter (fun d -> d.all_decided) runs);
    avg_rounds = mean (sum Fun.id rounds) (List.length rounds);
    avg_steps = mean (sum (fun d -> d.steps) runs) count;
    avg_msgs = mean (sum (fun d -> d.metrics.Sim.Runner.sent) runs) count;
    avg_hwm = mean (sum (fun d -> d.metrics.Sim.Runner.mailbox_hwm) runs) count;
  }

type stab_row = { stab_time : int; s_runs : int; s_avg_steps : float }

let stab_spec =
  Report.Table.(
    make
      [
        str "algorithm" "algorithm" 12 fst;
        int "stab_time" "stab_time" 10 (fun (_, r) -> r.stab_time);
        int "runs" "runs" 8 (fun (_, r) -> r.s_runs);
        float "avg_steps" "avg_steps" 12 1 (fun (_, r) -> r.s_avg_steps);
      ])

let stabilization_series algo ~n ~t ~stabs ~seeds =
  let max_steps = match algo with Stack -> 12000 | _ -> 8000 in
  List.map
    (fun stab_time ->
      let steps seed =
        (measure algo ~pattern:(random_pattern ~seed ~n ~t) ~seed ~stab_time
           ~max_steps)
          .steps
      in
      {
        stab_time;
        s_runs = List.length seeds;
        s_avg_steps = mean (sum steps seeds) (List.length seeds);
      })
    stabs

(* B7: liveness degradation under message loss. Each run gets a step
   budget (the same one B1 uses); a run that has not fully decided
   when the budget runs out is counted as non-terminating — the
   documented cutoff — and excluded from the latency mean. *)
type fault_row = {
  f_algorithm : string;
  f_drop : float;  (** injected per-message drop probability *)
  f_runs : int;
  f_decided : int;  (** runs fully decided within the step budget *)
  f_budget : int;  (** the non-termination cutoff, in steps *)
  f_avg_steps : float;  (** mean steps to full decision, decided runs only *)
  f_avg_dropped : float;  (** mean messages dropped by the network per run *)
}

let fault_spec =
  Report.Table.(
    make
      [
        str "algorithm" "algorithm" 12 (fun r -> r.f_algorithm);
        float "drop_rate" "drop" 6 2 (fun r -> r.f_drop);
        int "runs" "runs" 5 (fun r -> r.f_runs);
        int "decided" "decided" 8 (fun r -> r.f_decided);
        int "step_budget" "budget" 8 (fun r -> r.f_budget);
        float "avg_steps_decided" "steps_dec" 11 1 (fun r -> r.f_avg_steps);
        float "avg_net_dropped" "net_dropped" 12 1 (fun r -> r.f_avg_dropped);
      ])

let fault_latency algo ~n ~t ~drops ~seeds =
  List.map
    (fun drop ->
      let runs =
        List.map
          (fun seed ->
            let faults =
              if drop = 0.0 then Sim.Faults.none
              else Sim.Faults.make ~drop ~seed ()
            in
            measure ~faults algo ~pattern:(random_pattern ~seed ~n ~t) ~seed
              ~stab_time:60 ~max_steps:(budget algo))
          seeds
      in
      let decided = List.filter (fun d -> d.all_decided) runs in
      {
        f_algorithm = algo_name algo;
        f_drop = drop;
        f_runs = List.length runs;
        f_decided = List.length decided;
        f_budget = budget algo;
        f_avg_steps =
          mean (sum (fun d -> d.steps) decided) (List.length decided);
        f_avg_dropped =
          mean
            (sum (fun d -> d.metrics.Sim.Runner.dropped) runs)
            (List.length runs);
      })
    drops

let fault_table ?(quick = false) () =
  let seeds = List.init (if quick then 10 else 30) Fun.id in
  fault_latency Anuc ~n:4 ~t:1 ~drops:[ 0.0; 0.05; 0.2 ] ~seeds

type dag_row = {
  d_steps : int;
  dag_nodes : int;
  spine_len : int;
  extractions_total : int;
  d_msgs : int;
  d_hwm : int;
  wall_ms : float;
}

let dag_spec =
  Report.Table.(
    make
      [
        int "steps" "steps" 8 (fun r -> r.d_steps);
        int "dag_nodes" "dag_nodes" 10 (fun r -> r.dag_nodes);
        int "weave_len" "weave_len" 10 (fun r -> r.spine_len);
        int "extractions" "extractions" 12 (fun r -> r.extractions_total);
        int "messages_sent" "messages" 10 (fun r -> r.d_msgs);
        int "mailbox_hwm" "mbox_hwm" 9 (fun r -> r.d_hwm);
        float "wall_ms" "wall_ms" 10 1 (fun r -> r.wall_ms);
      ])

let dag_growth ~n ~steps_list =
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (n - 1, 40) ] in
  let oracle = Fd.Oracle.sigma_nu ~stab_time:60 pattern in
  List.map
    (fun max_steps ->
      let t0 = Sim.Clock.now () in
      let run =
        Tsp_runner.exec ~pattern ~record:false ~fd:oracle.Fd.Oracle.query
          ~inputs:(fun _ -> ())
          ~max_steps ()
      in
      let wall_ms = 1000.0 *. Sim.Clock.elapsed t0 in
      let st = run.Tsp_runner.states.(0) in
      let g = Core.T_sigma_plus.dag st in
      let spine_len =
        match Dagsim.Dag.samples_of g 0 with
        | [] -> 0
        | first :: _ -> List.length (Dagsim.Dag.weave g ~from:first)
      in
      let extractions_total =
        Array.fold_left
          (fun acc s -> acc + Core.T_sigma_plus.extractions s)
          0 run.Tsp_runner.states
      in
      {
        d_steps = max_steps;
        dag_nodes = Dagsim.Dag.size g;
        spine_len;
        extractions_total;
        d_msgs = run.Tsp_runner.metrics.Sim.Runner.sent;
        d_hwm = run.Tsp_runner.metrics.Sim.Runner.mailbox_hwm;
        wall_ms;
      })
    steps_list

(* ---------------------------------------------------------------- *)
(* B5: the mechanism ablation                                        *)
(* ---------------------------------------------------------------- *)

type ablation_row = {
  variant : string;
  script_outcome : string;
  script_violated : bool;
  sweep_runs : int;
  sweep_violations : int;
  a_avg_rounds : float;
}

let ablation_spec =
  Report.Table.(
    make
      [
        str "variant" "variant" 28 (fun r -> r.variant);
        str "script_outcome" "scripted Sec-6.3 adversary" 44 (fun r ->
            r.script_outcome);
        json "script_violated" (fun r -> Report.Bool r.script_violated);
        int "sweep_runs" "runs" 6 (fun r -> r.sweep_runs);
        int "sweep_violations" "viols" 6 (fun r -> r.sweep_violations);
        float "avg_rounds" "rounds" 7 2 (fun r -> r.a_avg_rounds);
      ])

(* Randomized adversarial sweep for one A_nuc variant: count NU
   agreement/validity violations and decision rounds. *)
let ablation_sweep (module V : Core.Anuc.S) ~seeds =
  let runs = List.map (fun seed -> adversarial_run (module V) ~seed) seeds in
  let rounds = List.concat_map (fun (_, d) -> d.rounds) runs in
  ( List.length runs,
    List.length (List.filter (fun (o, _) -> Result.is_error (safety o)) runs),
    mean (sum Fun.id rounds) (List.length rounds) )

let ablation_variant (module V : Core.Anuc.S)
    ~seeds =
  let module C = Core.Scenario.Contaminate (V) in
  let script_outcome, script_violated =
    match C.run () with
    | Ok o ->
      if o.Core.Scenario.agreement_violated then
        ("VIOLATED nonuniform agreement", true)
      else ("script completed, agreement held", false)
    | Error _ -> ("script blocked (mechanism engaged)", false)
  in
  let sweep_runs, sweep_violations, a_avg_rounds =
    ablation_sweep (module V) ~seeds
  in
  {
    variant = V.name;
    script_outcome;
    script_violated;
    sweep_runs;
    sweep_violations;
    a_avg_rounds;
  }

let ablation ?(quick = false) ?(seed_base = 0) () =
  let seeds = List.init (if quick then 6 else 20) (fun i -> seed_base + i) in
  [
    ablation_variant (module Core.Anuc) ~seeds;
    ablation_variant (module Core.Anuc.Without_awareness) ~seeds;
    ablation_variant (module Core.Anuc.Without_distrust) ~seeds;
    ablation_variant (module Core.Anuc.Without_both) ~seeds;
  ]

(* ---------------------------------------------------------------- *)
(* B6: model-checker throughput                                      *)
(* ---------------------------------------------------------------- *)

type mc_row = {
  mc_algorithm : string;
  mc_menu : string;
  mc_depth : int;
  mc_stats : Mc.stats;
  mc_outcome : string;
      (** "exhausted, no violation" or the certified counterexample *)
  mc_pass : bool;  (** the run matched its expected verdict *)
}

let mc_spec =
  let stat key get = Report.Table.json key (fun r -> get r.mc_stats) in
  Report.Table.(
    make
      [
        str "algorithm" "algorithm" 12 (fun r -> r.mc_algorithm);
        str "menu" "menu" 38 (fun r -> r.mc_menu);
        int "depth" "depth" 5 (fun r -> r.mc_depth);
        int "transitions" "transitions" 12 (fun r -> r.mc_stats.Mc.transitions);
        int "distinct_states" "states" 9 (fun r ->
            r.mc_stats.Mc.distinct_states);
        int "dedup_hits" "dedup" 10 (fun r -> r.mc_stats.Mc.dedup_hits);
        stat "self_loops" (fun s -> Report.Int s.Mc.self_loops);
        stat "sleep_skipped" (fun s -> Report.Int s.Mc.sleep_skipped);
        stat "races" (fun s -> Report.Int s.Mc.races);
        stat "backtracks" (fun s -> Report.Int s.Mc.backtracks);
        stat "decided_leaves" (fun s -> Report.Int s.Mc.decided_leaves);
        stat "depth_leaves" (fun s -> Report.Int s.Mc.depth_leaves);
        stat "truncated" (fun s -> Report.Bool s.Mc.truncated);
        stat "wall_seconds" (fun s -> Report.Float s.Mc.wall_seconds);
        float "states_per_sec" "states/s" 9 0 (fun r ->
            Mc.states_per_sec r.mc_stats);
        str "outcome" "outcome" 24 (fun r -> r.mc_outcome);
        json "pass" (fun r -> Report.Bool r.mc_pass);
      ])

let mc_table ?(quick = false) () =
  let _, anuc_r = mc_verify_anuc ~depth:(anuc_mc_depth ~quick) () in
  let _, naive_r, certified =
    mc_attack_naive ~depth:(naive_mc_depth ~quick) ()
  in
  let anuc_row =
    {
      mc_algorithm = "A_nuc";
      mc_menu = "Sigma-nu+ contamination family";
      mc_depth = anuc_mc_depth ~quick;
      mc_stats = anuc_r.Mc_anuc.stats;
      mc_outcome =
        (match anuc_r.Mc_anuc.violation with
        | None ->
          if anuc_r.Mc_anuc.stats.Mc.truncated then "TRUNCATED"
          else "exhausted, no violation"
        | Some cx -> "VIOLATION: " ^ cx.Mc_anuc.cx_property);
      mc_pass =
        anuc_r.Mc_anuc.violation = None
        && not anuc_r.Mc_anuc.stats.Mc.truncated;
    }
  in
  let naive_row =
    let outcome, pass =
      match (naive_r.Mc_naive.violation, certified) with
      | Some cx, Some (replay, history) ->
        ( Printf.sprintf "%d-step cx, replay %s, history %s"
            (List.length cx.Mc_naive.cx_steps)
            (if Result.is_ok replay then "ok" else "REJECTED")
            (if Result.is_ok history then "legal" else "ILLEGAL"),
          Result.is_ok replay && Result.is_ok history )
      | _ -> ("no violation (UNEXPECTED)", false)
    in
    {
      mc_algorithm = "naive-Sn";
      mc_menu = "Sigma-nu contamination family";
      mc_depth = naive_mc_depth ~quick;
      mc_stats = naive_r.Mc_naive.stats;
      mc_outcome = outcome;
      mc_pass = pass;
    }
  in
  [ anuc_row; naive_row ]

(* ---------------------------------------------------------------- *)
(* B8: randomized-explorer throughput                                *)
(* ---------------------------------------------------------------- *)

type fuzz_row = {
  fz_algorithm : string;
  fz_mode : string;
  fz_runs : int;
  fz_steps : int;
  fz_runs_per_sec : float;
  fz_states : int;
  fz_last_new_states : int;
  fz_shrink_ratio : float;
  fz_outcome : string;
}

let fuzz_spec =
  Report.Table.(
    make
      [
        str "algorithm" "algorithm" 10 (fun r -> r.fz_algorithm);
        str "mode" "mode" 16 (fun r -> r.fz_mode);
        int "runs" "runs" 8 (fun r -> r.fz_runs);
        int "steps" "steps" 10 (fun r -> r.fz_steps);
        float "runs_per_sec" "runs/s" 9 0 (fun r -> r.fz_runs_per_sec);
        int "distinct_states" "states" 9 (fun r -> r.fz_states);
        int "last_batch_new_states" "last+new" 10 (fun r ->
            r.fz_last_new_states);
        float "shrink_ratio" "shrink" 7 2 (fun r -> r.fz_shrink_ratio)
        |> missing "-";
        str "outcome" "outcome" 28 (fun r -> r.fz_outcome);
      ])

let fuzz_table ?(quick = false) () =
  let last_new (r : _ list) =
    match List.rev r with
    | [] -> 0
    | bp :: _ -> bp.Explore.bp_new_states
  in
  let naive_runs = if quick then 1_000 else 10_000 in
  let anuc_runs = if quick then 1_000 else 20_000 in
  let _, naive_r = fuzz_attack_naive ~seed:e13_fuzz_seed ~runs:naive_runs ~n:5 ~t:2 () in
  let _, anuc_r = fuzz_survive_anuc ~seed:e13_fuzz_seed ~runs:anuc_runs ~n:5 ~t:2 in
  let naive_row =
    let shrink_ratio, outcome =
      match naive_r.Ex_naive.violation with
      | None -> (Float.nan, "no violation (UNEXPECTED)")
      | Some v ->
        let raw = List.length v.Ex_naive.v_moves in
        let shrunk = List.length v.Ex_naive.v_shrunk in
        ( float_of_int shrunk /. float_of_int raw,
          Printf.sprintf "cx@run %d, %d -> %d moves%s" v.Ex_naive.v_run raw
            shrunk
            (if v.Ex_naive.v_replay_ok && v.Ex_naive.v_history_ok then
               ", certified"
             else ", UNCERTIFIED") )
    in
    {
      fz_algorithm = "naive-Sn";
      fz_mode = "uniform";
      fz_runs = naive_r.Ex_naive.runs;
      fz_steps = naive_r.Ex_naive.steps_total;
      fz_runs_per_sec =
        float_of_int naive_r.Ex_naive.runs
        /. Float.max 1e-9 naive_r.Ex_naive.wall_seconds;
      fz_states = naive_r.Ex_naive.totals.Explore.distinct_states;
      fz_last_new_states = last_new naive_r.Ex_naive.curve;
      fz_shrink_ratio = shrink_ratio;
      fz_outcome = outcome;
    }
  in
  let anuc_row =
    {
      fz_algorithm = "A_nuc";
      fz_mode = "swarm";
      fz_runs = anuc_r.Ex_anuc.runs;
      fz_steps = anuc_r.Ex_anuc.steps_total;
      fz_runs_per_sec =
        float_of_int anuc_r.Ex_anuc.runs
        /. Float.max 1e-9 anuc_r.Ex_anuc.wall_seconds;
      fz_states = anuc_r.Ex_anuc.totals.Explore.distinct_states;
      fz_last_new_states = last_new anuc_r.Ex_anuc.curve;
      fz_shrink_ratio = Float.nan;
      fz_outcome =
        (match anuc_r.Ex_anuc.violation with
        | None -> "no violation"
        | Some v -> "VIOLATION: " ^ v.Ex_anuc.v_property);
    }
  in
  [ naive_row; anuc_row ]

(* ---------------------------------------------------------------- *)
(* B9: parallel exploration scaling                                  *)
(* ---------------------------------------------------------------- *)

type b9_row = {
  b9_workload : string;
  b9_jobs : int;
  b9_wall : float;
  b9_throughput : float;  (** states/s for the mc workload, runs/s for fuzz *)
  b9_speedup : float;  (** throughput relative to the jobs=1 row *)
  b9_equal : bool;
      (** sequential equivalence held: same verdict and distinct-state
          count (mc), byte-identical JSON report (fuzz) *)
}

let b9_spec =
  Report.Table.(
    make
      [
        str "workload" "workload" 30 (fun r -> r.b9_workload);
        int "jobs" "jobs" 4 (fun r -> r.b9_jobs);
        float "wall_seconds" "wall(s)" 9 3 (fun r -> r.b9_wall);
        float "throughput" "throughput" 12 0 (fun r -> r.b9_throughput);
        float "speedup" "speedup" 7 2 (fun r -> r.b9_speedup) |> suffix "x";
        bool "sequential_equivalent" "equal" 6 (fun r -> r.b9_equal);
      ])

let b9_jobs = [ 1; 2; 4; 8 ]

(* The fuzz workload: property-free sampling of the E_1(3) naive
   universe, so every run executes (no early violation stop) and the
   per-jobs reports are comparable byte for byte. *)
let b9_fuzz_run ~jobs ~runs =
  let n = 3 and t = 1 in
  let max_steps = fuzz_max_steps ~n in
  let faulty, pattern, proposals = universe ~n ~t ~bound:max_steps in
  let menu = Mc.Menu.contamination ~n ~faulty () in
  Ex_naive.fuzz ~algo:"naive-sn" ~max_steps ~jobs ~shrink:false
    ~decided:(fun st -> Consensus.Mr.With_quorum.decision st <> None)
    ~seed:e13_fuzz_seed ~runs ~n ~menu ~pattern ~inputs:proposals ~props:[]
    ()

let b9_parallel_table ?(quick = false) () =
  let depth = if quick then 7 else anuc_mc_depth ~quick:true in
  let runs = if quick then 500 else 5_000 in
  let speedup ~base tp = tp /. Float.max 1e-9 base in
  let mc_rows =
    let workload = Printf.sprintf "mc A_nuc E_1(3) depth %d" depth in
    (* the E11 'verify' half: enough states (tens of thousands) for
       the sharded table to matter, few enough to run four times *)
    let rows =
      List.map
        (fun jobs -> (jobs, snd (mc_verify_anuc ~jobs ~depth ())))
        b9_jobs
    in
    let _, base = List.hd rows in
    let base_tp = Mc.states_per_sec base.Mc_anuc.stats in
    List.map
      (fun (jobs, (r : Mc_anuc.report)) ->
        let tp = Mc.states_per_sec r.Mc_anuc.stats in
        {
          b9_workload = workload;
          b9_jobs = jobs;
          b9_wall = r.Mc_anuc.stats.Mc.wall_seconds;
          b9_throughput = tp;
          b9_speedup = speedup ~base:base_tp tp;
          b9_equal =
            Option.is_none r.Mc_anuc.violation
            = Option.is_none base.Mc_anuc.violation
            && r.Mc_anuc.stats.Mc.distinct_states
               = base.Mc_anuc.stats.Mc.distinct_states
            && (not r.Mc_anuc.stats.Mc.truncated)
            && not base.Mc_anuc.stats.Mc.truncated;
        })
      rows
  in
  let fuzz_rows =
    let workload = Printf.sprintf "fuzz naive-Sn E_1(3) %d runs" runs in
    let rows =
      List.map
        (fun jobs ->
          let r = b9_fuzz_run ~jobs ~runs in
          (jobs, r, Report.to_string (Ex_naive.json_of_report r)))
        b9_jobs
    in
    let _, base, base_json = List.hd rows in
    let base_tp =
      float_of_int base.Ex_naive.runs
      /. Float.max 1e-9 base.Ex_naive.wall_seconds
    in
    List.map
      (fun (jobs, (r : Ex_naive.report), json) ->
        let tp =
          float_of_int r.Ex_naive.runs /. Float.max 1e-9 r.Ex_naive.wall_seconds
        in
        {
          b9_workload = workload;
          b9_jobs = jobs;
          b9_wall = r.Ex_naive.wall_seconds;
          b9_throughput = tp;
          b9_speedup = speedup ~base:base_tp tp;
          b9_equal = String.equal json base_json;
        })
      rows
  in
  mc_rows @ fuzz_rows

(* ---------------------------------------------------------------- *)
(* B10: served replication throughput                                *)
(* ---------------------------------------------------------------- *)

type b10_row = {
  b10_substrate : string;
  b10_clients : int;
  b10_batch : int;
  b10_window : int;
  b10_slots : int;
  b10_ops : int;
  b10_steps : int;
  b10_wall : float;
  b10_ops_per_sec : float;
  b10_p50 : float;
  b10_p99 : float;
  b10_divergent : bool;
}

let b10_spec =
  Report.Table.(
    make
      [
        str "substrate" "substrate" 12 (fun r -> r.b10_substrate);
        int "clients" "clients" 7 (fun r -> r.b10_clients);
        int "batch" "batch" 5 (fun r -> r.b10_batch);
        int "window" "window" 6 (fun r -> r.b10_window);
        int "slots" "slots" 5 (fun r -> r.b10_slots);
        int "ops" "ops" 6 (fun r -> r.b10_ops);
        int "steps" "steps" 9 (fun r -> r.b10_steps);
        float "wall_seconds" "wall(s)" 8 3 (fun r -> r.b10_wall);
        float "ops_per_sec" "ops/s" 9 0 (fun r -> r.b10_ops_per_sec);
        float "p50_ticks" "p50(tk)" 8 0 (fun r -> r.b10_p50);
        float "p99_ticks" "p99(tk)" 8 0 (fun r -> r.b10_p99);
        bool "divergent" "div" 5 (fun r -> r.b10_divergent);
      ])

let b10_row ~substrate cfg (o : Load.outcome) =
  {
    b10_substrate = substrate;
    b10_clients = cfg.Load.clients;
    b10_batch = cfg.Load.batch;
    b10_window = cfg.Load.window;
    b10_slots = o.Load.o_slots;
    b10_ops = o.Load.o_ops;
    b10_steps = o.Load.o_steps;
    b10_wall = o.Load.o_wall;
    b10_ops_per_sec = float_of_int o.Load.o_ops /. Float.max 1e-9 o.Load.o_wall;
    b10_p50 = o.Load.o_p50;
    b10_p99 = o.Load.o_p99;
    b10_divergent = o.Load.o_divergent;
  }

(* Enough commands to feed [target_slots] full batches twice over, so
   the closed loop never drains before the run stops. *)
let b10_commands_per_client ~clients ~batch ~target_slots =
  max 2 (((2 * batch * target_slots) + clients - 1) / clients)

let b10_config ~clients ~batch ~target_slots ~max_steps =
  {
    Load.default with
    n = 4;
    clients;
    commands_per_client =
      b10_commands_per_client ~clients ~batch ~target_slots;
    batch;
    pipeline = 2;
    window = 4 * batch;
    retain = 128;
    horizon = 64;
    target_slots;
    max_steps;
    seed = 11;
  }

let b10_serve_table ?(quick = false) ?(jobs = 2) () =
  let grid_clients = if quick then [ 16; 64 ] else [ 16; 64; 256 ] in
  let batches = [ 1; 4 ] in
  let target_slots = if quick then 40 else 120 in
  let max_steps = if quick then 400_000 else 2_000_000 in
  List.concat_map
    (fun clients ->
      List.concat_map
        (fun batch ->
          let cfg = b10_config ~clients ~batch ~target_slots ~max_steps in
          let s = Load.run_sim cfg in
          let e = Load.run_exec ~jobs cfg in
          [
            b10_row ~substrate:"sim" cfg s;
            b10_row ~substrate:(Printf.sprintf "exec(j=%d)" jobs) cfg e;
          ])
        batches)
    grid_clients

(* ---------------------------------------------------------------- *)
(* B11: partial-order reduction (mc --reduction)                     *)
(* ---------------------------------------------------------------- *)

type b11_row = {
  b11_algorithm : string;
  b11_reduction : string;
  b11_depth : int;
  b11_transitions : int;
  b11_states : int;
  b11_dedup : int;
  b11_self_loops : int;
  b11_sleep_skipped : int;
  b11_races : int;
  b11_backtracks : int;
  b11_wall : float;
  b11_outcome : string;
  b11_pass : bool;
}

let b11_spec =
  Report.Table.(
    make
      [
        str "algorithm" "algorithm" 10 (fun r -> r.b11_algorithm);
        str "reduction" "red" 6 (fun r -> r.b11_reduction);
        int "depth" "depth" 5 (fun r -> r.b11_depth);
        int "transitions" "transitions" 11 (fun r -> r.b11_transitions);
        int "distinct_states" "states" 9 (fun r -> r.b11_states);
        int "dedup_hits" "dedup" 9 (fun r -> r.b11_dedup);
        int "self_loops" "self-loop" 10 (fun r -> r.b11_self_loops);
        int "sleep_skipped" "slept" 9 (fun r -> r.b11_sleep_skipped);
        int "races" "races" 7 (fun r -> r.b11_races);
        int "backtracks" "backtr" 7 (fun r -> r.b11_backtracks);
        float "wall_seconds" "wall(s)" 8 3 (fun r -> r.b11_wall);
        str "outcome" "outcome" 10 (fun r -> r.b11_outcome);
        bool "pass" "pass" 5 (fun r -> r.b11_pass);
      ])

let b11_row_of_stats ~algorithm ~reduction ~depth ~outcome ~pass
    (s : Mc.stats) =
  {
    b11_algorithm = algorithm;
    b11_reduction = Format.asprintf "%a" Mc.pp_reduction reduction;
    b11_depth = depth;
    b11_transitions = s.Mc.transitions;
    b11_states = s.Mc.distinct_states;
    b11_dedup = s.Mc.dedup_hits;
    b11_self_loops = s.Mc.self_loops;
    b11_sleep_skipped = s.Mc.sleep_skipped;
    b11_races = s.Mc.races;
    b11_backtracks = s.Mc.backtracks;
    b11_wall = s.Mc.wall_seconds;
    b11_outcome = outcome;
    b11_pass = pass;
  }

let b11_depth ~quick = if quick then 7 else 11

(* Three runs of the E11 A_nuc verification at one depth, one per
   reduction. The pass column re-checks the state-preservation
   contract against the unreduced row: identical verdict (exhausted,
   no violation) and identical distinct-state count. *)
let b11_dpor_table ?(quick = false) () =
  let depth = b11_depth ~quick in
  let explore reduction = snd (mc_verify_anuc ~reduction ~depth ()) in
  let none_r = explore Mc.No_reduction in
  let baseline = none_r.Mc_anuc.stats.Mc.distinct_states in
  let row reduction r =
    let s = r.Mc_anuc.stats in
    let outcome =
      if s.Mc.truncated then "TRUNCATED"
      else
        match r.Mc_anuc.violation with
        | Some cx -> "VIOLATION: " ^ cx.Mc_anuc.cx_property
        | None -> "exhausted"
    in
    let pass =
      (not s.Mc.truncated)
      && r.Mc_anuc.violation = None
      && s.Mc.distinct_states = baseline
    in
    b11_row_of_stats ~algorithm:"A_nuc" ~reduction ~depth ~outcome ~pass s
  in
  [
    row Mc.No_reduction none_r;
    row Mc.Sleep_sets (explore Mc.Sleep_sets);
    row Mc.Dpor (explore Mc.Dpor);
  ]

(* ---------------------------------------------------------------- *)
(* B12: packed canonical-state codec (per-state retained memory)     *)
(* ---------------------------------------------------------------- *)

type b12_row = {
  b12_depth : int;
  b12_states : int;
  b12_heap_bytes : float;
  b12_packed_bytes : float;
  b12_ratio : float;
  b12_pass : bool;
}

let b12_spec =
  Report.Table.(
    make
      [
        int "depth" "depth" 5 (fun r -> r.b12_depth);
        int "distinct_states" "states" 9 (fun r -> r.b12_states);
        float "heap_bytes_per_state" "heap(B/st)" 12 1 (fun r ->
            r.b12_heap_bytes);
        float "packed_bytes_per_state" "packed(B/st)" 14 1 (fun r ->
            r.b12_packed_bytes);
        float "ratio" "ratio" 6 1 (fun r -> r.b12_ratio) |> suffix "x";
        bool "pass" "pass" 5 (fun r -> r.b12_pass);
      ])

module B12_cfg_key = struct
  type t = Mc_anuc.Space.config

  let equal = Mc_anuc.Space.equal
end

module B12_cfg_tbl = Mc.Intern.Table (B12_cfg_key)

module B12_bytes_key = struct
  type t = Bytes.t

  let equal = Bytes.equal
end

module B12_bytes_tbl = Mc.Intern.Table (B12_bytes_key)

(* DFS over the E_1(3) universe, deduplicating through the pipeline
   under measurement ([visit] returns whether the config was new) —
   the same role the memo table plays inside the checker. *)
let b12_walk ~depth ~visit =
  let n = 3 in
  let faulty, _pattern, proposals = universe ~n ~t:1 ~bound:depth in
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let menus = Array.init n (fun p -> menu.Mc.Menu.values p) in
  let count = ref 0 in
  let rec go cfg d =
    if visit cfg then begin
      incr count;
      if d < depth then
        List.iter
          (fun mv -> go (Mc_anuc.Space.apply ~n cfg mv) (d + 1))
          (Mc_anuc.Space.enabled ~n ~delivery:`Fifo ~lossy:false ~menus cfg)
    end
  in
  go (Mc_anuc.Space.initial ~n ~inputs:proposals) 0;
  !count

let b12_live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* [run ()] builds one pipeline and returns only what that pipeline
   retains per state — the dedup table driving the walk is NOT
   returned, so the closing [Gc.compact] collects it along with the
   walk's intermediate configs, and the live-word delta isolates the
   state representation the codec changes (the hashed-key wrapper,
   hashtable bindings and coverage entries are identical in both memo
   layouts and would only dilute the comparison). *)
let b12_measure run =
  let before = b12_live_words () in
  let retained, states = run () in
  let after = b12_live_words () in
  ignore (Sys.opaque_identity retained);
  (states, after - before)

(* Pipeline A — the pre-codec memo's state representation: every
   distinct config retained as its heap graph (configs produced by
   [apply] share unchanged per-process states and channels, exactly
   as the exploration's memo retained them). *)
let b12_heap_pipeline ~depth () =
  let tbl = B12_cfg_tbl.create 1024 in
  let acc = ref [] in
  let visit cfg =
    let k = Mc.Intern.hashed Mc_anuc.Space.key cfg in
    if B12_cfg_tbl.mem tbl k then false
    else begin
      B12_cfg_tbl.add tbl k ();
      acc := cfg :: !acc;
      true
    end
  in
  let states = b12_walk ~depth ~visit in
  (Obj.repr (Array.of_list !acc), states)

(* Pipeline B — the codec's state representation: one packed byte
   string per distinct config plus the two interning pools; the
   configs themselves become garbage after encoding. *)
let b12_packed_pipeline ~depth () =
  let pool = Mc_anuc.Packed.create ~n:3 in
  let tbl = B12_bytes_tbl.create 1024 in
  let acc = ref [] in
  let visit cfg =
    let b = Mc_anuc.Packed.encode pool cfg in
    let k = Mc.Intern.hashed Mc.Codec.bytes_hash b in
    if B12_bytes_tbl.mem tbl k then false
    else begin
      B12_bytes_tbl.add tbl k ();
      acc := b :: !acc;
      true
    end
  in
  let states = b12_walk ~depth ~visit in
  (Obj.repr (pool, Array.of_list !acc), states)

let b12_codec_table ?(quick = false) () =
  let word = Sys.word_size / 8 in
  List.map
    (fun depth ->
      let states_a, words_a = b12_measure (b12_heap_pipeline ~depth) in
      let states_b, words_b = b12_measure (b12_packed_pipeline ~depth) in
      let per n w = float_of_int (max 0 w * word) /. float_of_int (max 1 n) in
      let heap = per states_a words_a and packed = per states_b words_b in
      let ratio = heap /. Float.max 1e-9 packed in
      {
        b12_depth = depth;
        b12_states = states_a;
        b12_heap_bytes = heap;
        b12_packed_bytes = packed;
        b12_ratio = ratio;
        b12_pass = states_a = states_b && ratio >= 5.0;
      })
    (* below ~5k states the pools' fixed cost (two hashtables and
       their dense arrays) dominates the per-state bytes, so the
       smallest depth with a meaningful amortized figure is 7 *)
    (if quick then [ 7 ] else [ 7; 9 ])

(* ---------------------------------------------------------------- *)
(* B13: quorum-family latency / resilience trade-off                 *)
(* ---------------------------------------------------------------- *)

type b13_row = {
  b13_family : string;
  b13_n : int;
  b13_t : int;
  b13_minq : int;
  b13_resilience : int;
  b13_runs : int;
  b13_live : int;
  b13_decided : int;
  b13_avg_rounds : float;
  b13_avg_steps : float;
  b13_pass : bool;
}

let b13_spec =
  Report.Table.(
    make
      [
        str "family" "family" 20 (fun r -> r.b13_family);
        int "n" "n" 3 (fun r -> r.b13_n);
        int "t" "t" 3 (fun r -> r.b13_t);
        int "min_quorum" "minq" 5 (fun r -> r.b13_minq);
        int "resilience" "resil" 6 (fun r -> r.b13_resilience);
        int "runs" "runs" 5 (fun r -> r.b13_runs);
        int "live" "live" 5 (fun r -> r.b13_live);
        int "decided" "decided" 8 (fun r -> r.b13_decided);
        float "avg_rounds" "rounds" 8 2 (fun r -> r.b13_avg_rounds);
        float "avg_steps" "steps" 10 1 (fun r -> r.b13_avg_steps);
        bool "pass" "pass" 5 (fun r -> r.b13_pass);
      ])

(* MR over the family: the waits are satisfied by any family quorum of
   distinct senders, so the detector only supplies Omega. Crashes land
   at time 0 (a random [t]-subset per seed, never the whole universe),
   so no transient quorum can assemble before a crash: the run decides
   iff the surviving set is itself a family quorum — exactly the
   structural question [validate] answers. The pass column pins that
   equivalence operationally: decided = live, run by run, with the
   blocked runs really executed against their step budget (not
   skipped). *)
let b13_pattern ~seed ~n ~t =
  let rng = Random.State.make [| 0xb13; seed; n; t |] in
  let rec pick chosen k =
    if k = 0 then chosen
    else
      let p = Random.State.int rng n in
      if Pset.mem p chosen then pick chosen k
      else pick (Pset.add p chosen) (k - 1)
  in
  let faulty = pick Pset.empty (min t (n - 1)) in
  Sim.Failure_pattern.make ~n
    ~crashes:(List.map (fun p -> (p, 0)) (Pset.elements faulty))

let b13_measure fam ~n ~t ~seeds =
  let runs =
    List.map
      (fun seed ->
        let pattern = b13_pattern ~seed ~n ~t in
        let live = Sim.Failure_pattern.correct pattern in
        ( Result.is_ok (Quorum_family.validate fam ~n ~live),
          measure (Family fam) ~pattern ~seed ~stab_time:60 ~max_steps:4000 ))
      seeds
  in
  let decided = List.filter (fun (_, d) -> d.all_decided) runs in
  let rounds = List.concat_map (fun (_, d) -> d.rounds) decided in
  {
    b13_family = Quorum_family.name fam;
    b13_n = n;
    b13_t = t;
    b13_minq =
      Option.value ~default:(-1) (Quorum_family.min_quorum_size fam ~n);
    b13_resilience = Quorum_family.resilience fam ~n;
    b13_runs = List.length runs;
    b13_live = List.length (List.filter fst runs);
    b13_decided = List.length decided;
    b13_avg_rounds = mean (sum Fun.id rounds) (List.length rounds);
    b13_avg_steps =
      mean (sum (fun (_, d) -> d.steps) decided) (List.length decided);
    b13_pass = List.for_all (fun (live, d) -> live = d.all_decided) runs;
  }

(* The trade-off sweep: same MR skeleton, five quorum structures.
   majority(5) tolerates t = 2 and decides everywhere; super:1(5) buys
   fast-quorum intersection margin at resilience 1; the weighted votes
   concentrate power on p0 (quorums of two, but a dead p0 plus one
   more blocks the structure — decided tracks live, not runs); the
   2x2 grid at t = 1 always survives, and at t = 2 no pair of
   survivors holds a full row and column, so nothing ever decides. *)
let b13_configs =
  [
    (Quorum_family.majority, 5, 2);
    (Quorum_family.supermajority ~f:1, 5, 1);
    (Quorum_family.weighted ~weights:[ 3; 1; 1; 1; 1 ], 5, 2);
    (Quorum_family.grid ~rows:2 ~cols:2 (), 4, 1);
    (Quorum_family.grid ~rows:2 ~cols:2 (), 4, 2);
  ]

let b13_quorum_table ?(quick = false) ?(seed_base = 0) () =
  let seeds =
    List.map (( + ) seed_base)
      (List.init (if quick then 6 else 20) (fun i -> i))
  in
  List.map (fun (fam, n, t) -> b13_measure fam ~n ~t ~seeds) b13_configs

(* ---------------------------------------------------------------- *)
(* B14: the read path on the ring transport                         *)
(* ---------------------------------------------------------------- *)

type b14_row = {
  b14_read_mode : string;
  b14_jobs : int;
  b14_slots : int;
  b14_ops : int;
  b14_ops_per_sec : float;
  b14_reads : int;
  b14_reads_per_sec : float;
  b14_read_p50_us : float;
  b14_read_p99_us : float;
  b14_stale_max : int;
  b14_stale_bound : int;
  b14_snapshots : int;
  b14_lock_ops : int;
  b14_cas_retries : int;
  b14_sync_ops : int;
  b14_divergent : bool;
  b14_stale_ok : bool;
}

let b14_spec =
  Report.Table.(
    make
      [
        str "read_mode" "reads" 8 (fun r -> r.b14_read_mode);
        int "jobs" "jobs" 4 (fun r -> r.b14_jobs);
        int "slots" "slots" 5 (fun r -> r.b14_slots);
        int "ops" "ops" 6 (fun r -> r.b14_ops);
        float "ops_per_sec" "ops/s" 9 0 (fun r -> r.b14_ops_per_sec);
        int "reads" "reads" 6 (fun r -> r.b14_reads);
        float "reads_per_sec" "reads/s" 10 0 (fun r -> r.b14_reads_per_sec);
        float "read_p50_us" "rp50(us)" 8 3 (fun r -> r.b14_read_p50_us);
        float "read_p99_us" "rp99(us)" 8 3 (fun r -> r.b14_read_p99_us);
        int "stale_max" "stale" 5 (fun r -> r.b14_stale_max);
        int "stale_bound" "bound" 5 (fun r -> r.b14_stale_bound);
        json "snapshots" (fun r -> Report.Int r.b14_snapshots);
        int "lock_ops" "lock_ops" 9 (fun r -> r.b14_lock_ops);
        int "cas_retries" "cas_rt" 7 (fun r -> r.b14_cas_retries);
        int "sync_ops" "sync_ops" 8 (fun r -> r.b14_sync_ops);
        json "divergent" (fun r -> Report.Bool r.b14_divergent);
        json "stale_ok" (fun r -> Report.Bool r.b14_stale_ok);
        text_only
          (bool "ok" "ok" 5 (fun r -> r.b14_stale_ok && not r.b14_divergent));
      ])

let b14_row ~jobs cfg (o : Load.outcome) =
  {
    b14_read_mode = Load.read_mode_name cfg.Load.read_mode;
    b14_jobs = jobs;
    b14_slots = o.Load.o_slots;
    b14_ops = o.Load.o_ops;
    b14_ops_per_sec = float_of_int o.Load.o_ops /. Float.max 1e-9 o.Load.o_wall;
    b14_reads = o.Load.o_reads;
    b14_reads_per_sec = o.Load.o_reads_per_sec;
    b14_read_p50_us = o.Load.o_read_p50_us;
    b14_read_p99_us = o.Load.o_read_p99_us;
    b14_stale_max = o.Load.o_stale_max;
    b14_stale_bound = o.Load.o_stale_bound;
    b14_snapshots = o.Load.o_snapshots;
    b14_lock_ops = o.Load.o_lock_ops;
    b14_cas_retries = o.Load.o_cas_retries;
    b14_sync_ops = o.Load.o_sync_ops;
    b14_divergent = o.Load.o_divergent;
    b14_stale_ok = o.Load.o_stale_max <= o.Load.o_stale_bound;
  }

let b14_config ~read_mode ~reads ~target_slots ~max_steps =
  let base =
    b10_config ~clients:64 ~batch:1 ~target_slots ~max_steps
  in
  { base with Load.read_mode; reads; publish_every = 8 }

let b14_ring_table ?(quick = false) () =
  let jobs_grid = if quick then [ 1 ] else [ 1; 2 ] in
  let target_slots = if quick then 40 else 120 in
  let max_steps = if quick then 400_000 else 2_000_000 in
  let reads = if quick then 2_000 else 20_000 in
  List.concat_map
    (fun jobs ->
      List.map
        (fun read_mode ->
          let cfg = b14_config ~read_mode ~reads ~target_slots ~max_steps in
          b14_row ~jobs cfg (Load.run_exec ~jobs cfg))
        [ Load.Read_log; Load.Read_snapshot ])
    jobs_grid


(* ---------------------------------------------------------------- *)
(* Substrate run metrics: one instrumented reference run             *)
(* ---------------------------------------------------------------- *)

let reference_run () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~stab_time:0 pattern)
      (Fd.Oracle.sigma_nu_plus ~stab_time:0 pattern)
  in
  Anuc_runner.exec ~record:false ~pattern ~fd:oracle.Fd.Oracle.query
    ~inputs:(fun p -> p mod 2)
    ~max_steps:2000
    ~stop:(fun st _ ->
      Pset.for_all
        (fun p -> Core.Anuc.decision (st p) <> None)
        (Pset.full ~n:4))
    ()

let metrics_spec =
  let field key get =
    Report.Table.json key (fun (m : Sim.Runner.metrics) -> get m)
  in
  let count key get = field key (fun m -> Report.Int (get m)) in
  Report.Table.make
    [
      field "steps_per_process" (fun m ->
          Report.List
            (Array.to_list
               (Array.map (fun s -> Report.Int s) m.steps_per_process)));
      count "messages_sent" (fun m -> m.sent);
      count "messages_delivered" (fun m -> m.delivered);
      count "messages_dropped" (fun m -> m.dropped);
      count "messages_duplicated" (fun m -> m.duplicated);
      count "messages_reordered" (fun m -> m.reordered);
      count "messages_undelivered_at_stop" (fun m -> m.undelivered_at_stop);
      count "mailbox_hwm" (fun m -> m.mailbox_hwm);
      field "wall_seconds" (fun m -> Report.Float m.wall_seconds);
    ]

(* ---------------------------------------------------------------- *)
(* B4: bechamel microbenchmarks of the substrate hot paths           *)
(* ---------------------------------------------------------------- *)

let micro_tests () =
  let dag k =
    let g = ref Dagsim.Dag.empty in
    for i = 1 to k do
      g :=
        Dagsim.Dag.add_sample !g
          {
            Dagsim.Node.owner = i mod 4;
            index = 1 + (i / 4);
            value = Sim.Fd_value.Quorum (Pset.singleton (i mod 4));
          }
    done;
    !g
  in
  let a = Pset.of_list [ 0; 2; 4; 6 ] and b = Pset.of_list [ 1; 2; 3 ] in
  let h =
    List.fold_left
      (fun h (p, q) -> Core.Qhist.add h p (Pset.of_list q))
      Core.Qhist.empty
      [
        (0, [ 0; 1 ]);
        (0, [ 0; 2 ]);
        (1, [ 1; 2 ]);
        (2, [ 2; 3 ]);
        (3, [ 0; 3 ]);
        (3, [ 3 ]);
      ]
  in
  (* everything Sigma-nu+ can give p at n = 4 in a crash-free run
     pivoted at 0: every quorum holding both 0 and p *)
  let anchored =
    List.fold_left
      (fun h p ->
        List.fold_left
          (fun h s -> Core.Qhist.add h p (Pset.union (Pset.of_list [ 0; p ]) s))
          h
          (Pset.subsets (Pset.full ~n:4)))
      Core.Qhist.empty [ 0; 1; 2; 3 ]
  in
  let dag_200 = dag 200 in
  let from = List.hd (Dagsim.Dag.samples_of dag_200 0) in
  let test name f = Bechamel.Test.make ~name (Bechamel.Staged.stage f) in
  Bechamel.Test.make_grouped ~name:"micro"
    [
      test "pset-inter-subset" (fun () ->
          ignore (Pset.intersects a b);
          ignore (Pset.subset (Pset.inter a b) a));
      test "qhist-distrusts" (fun () ->
          ignore (Core.Qhist.distrusts ~self:0 ~n:4 h 3));
      test "qhist-distrusts-anchored" (fun () ->
          ignore (Core.Qhist.distrusts ~self:0 ~n:4 anchored 3));
      test "dag-add-sample-100" (fun () -> ignore (dag 100));
      test "dag-weave-200" (fun () ->
          ignore (Dagsim.Dag.weave dag_200 ~from));
      test "anuc-full-consensus-n4" (fun () -> ignore (reference_run ()));
    ]

(* One [(name, ns per run)] row per microbenchmark, sorted by name;
   [None] when the OLS fit has an unexpected shape (warned about). *)
let micro_table ~smoke =
  let cfg =
    Bechamel.Benchmark.cfg
      ~limit:(if smoke then 100 else 1000)
      ~quota:(Bechamel.Time.second (if smoke then 0.05 else 0.4))
      ()
  in
  let clock = Bechamel.Toolkit.Instance.monotonic_clock in
  let raw = Bechamel.Benchmark.all cfg [ clock ] (micro_tests ()) in
  let analyzed =
    Bechamel.Analyze.all
      (Bechamel.Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Bechamel.Measure.run |])
      clock raw
  in
  Hashtbl.fold
    (fun name ols rows ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ e ] -> (name, Some e) :: rows
      | Some _ | None ->
        Format.printf
          "WARNING: benchmark %s: OLS estimates had an unexpected shape; \
           no ns/run figure@."
          name;
        (name, None) :: rows)
    analyzed []
  |> List.sort compare

let micro_spec =
  Report.Table.(
    make
      [
        str "name" "" 32 fst;
        float "ns_per_run" "" 14 1 (fun (_, e) -> Option.value e ~default:nan)
        |> suffix " ns/run"
        |> missing "(no estimate)";
      ])

(* ---------------------------------------------------------------- *)
(* The registry: every section of the bench document, in order       *)
(* ---------------------------------------------------------------- *)

type section = {
  key : string;
  title : string;
  run : smoke:bool -> Report.t;
}

let table key title rows spec =
  let run ~smoke =
    let rs = rows ~smoke in
    Report.Table.print spec Format.std_formatter rs;
    Report.Table.rows spec rs
  in
  { key; title; run }

let e_section =
  let run ~smoke:_ =
    let rows = all ~quick:true () in
    List.iter (fun r -> Format.printf "%a@.@." pp_row r) rows;
    Format.printf "E-table summary: %d/%d experiments PASS@."
      (List.length (List.filter (fun r -> r.pass) rows))
      (List.length rows);
    Report.Table.rows row_spec rows
  in
  {
    key = "e_table";
    title =
      "E-table: theorem validation (quick sweeps; full sweeps in `dune \
       runtest`)";
    run;
  }

let metrics_section =
  let run ~smoke:_ =
    let m = (reference_run ()).Anuc_runner.metrics in
    Format.printf "%a@." Sim.Runner.pp_metrics m;
    Format.printf "steps per process: %s@."
      (String.concat " "
         (Array.to_list
            (Array.map string_of_int m.Sim.Runner.steps_per_process)));
    Report.Table.row metrics_spec m
  in
  {
    key = "run_metrics";
    title = "Run metrics: reference A_nuc consensus run (n=4, failure-free)";
    run;
  }

let b1_rows ~smoke =
  let seeds = if smoke then [ 0 ] else [ 0; 1; 2; 3; 4 ] in
  let consensus =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun t ->
            if t >= n then []
            else
              (if 2 * t < n then [ Mr_majority; Ct ] else [])
              @ [ Mr_sigma; Anuc ]
              |> List.map (fun algo -> latency algo ~n ~t ~seeds))
          (if smoke then [ 1 ] else [ 1; 2; 4 ]))
      (if smoke then [ 3 ] else [ 3; 5; 7 ])
  in
  let stack =
    List.map
      (fun (n, t) ->
        latency Stack ~n ~t ~seeds:(if smoke then [ 0 ] else [ 0; 1; 2 ]))
      (if smoke then [ (4, 1) ] else [ (4, 1); (4, 3) ])
  in
  consensus @ stack

let b2_rows ~smoke =
  List.concat_map
    (fun (name, algo) ->
      stabilization_series algo ~n:5 ~t:2
        ~stabs:(if smoke then [ 0; 150 ] else [ 0; 50; 150; 300 ])
        ~seeds:(if smoke then [ 0 ] else [ 0; 1; 2 ])
      |> List.map (fun r -> (name, r)))
    [ ("MR-Sigma", Mr_sigma); ("A_nuc", Anuc) ]

let sections =
  [
    e_section;
    table "b1_latency"
      "B1: decision latency (avg over seeds; rounds = consensus rounds of \
       correct deciders)"
      b1_rows latency_spec;
    table "b2_stabilization"
      "B2: steps to full decision vs detector stabilization time (n=5, t=2)"
      b2_rows stab_spec;
    table "b3_dag_growth"
      "B3: T_{Sigma-nu -> Sigma-nu+} cost vs run length (n=4; DAG pruned to \
       a sliding window)"
      (fun ~smoke ->
        dag_growth ~n:4
          ~steps_list:(if smoke then [ 200; 400 ] else [ 200; 400; 800; 1600 ]))
      dag_spec;
    table "b5_ablation"
      "B5: A_nuc mechanism ablation (scripted Sec-6.3 adversary + \
       randomized adversarial sweeps, n=4)"
      (fun ~smoke:_ -> ablation ~quick:true ())
      ablation_spec;
    table "b6_model_check"
      "B6: bounded model checker (lib/mc) — the two E11 explorations on \
       E_1(3)"
      (fun ~smoke -> mc_table ~quick:smoke ())
      mc_spec;
    table "b7_fault_latency"
      "B7: A_nuc decision latency vs message-drop rate (n=4, t=1; \
       non-deciders hit the step budget — nothing retransmits a dropped \
       message)"
      (fun ~smoke -> fault_table ~quick:smoke ())
      fault_spec;
    table "b8_fuzz"
      "B8: randomized schedule explorer (lib/explore) — the two E13 \
       campaigns on E_2(5)"
      (fun ~smoke -> fuzz_table ~quick:smoke ())
      fuzz_spec;
    table "b9_parallel"
      "B9: multicore scaling of the exploration engines (mc ~jobs over the \
       striped table; fuzz ~jobs batch sharding) — speedups are honest host \
       measurements, ~1x on single-core containers"
      (fun ~smoke -> b9_parallel_table ~quick:smoke ())
      b9_spec;
    table "b10_serve"
      "B10: closed-loop replicated-log serving (Smr over A_nuc), clients x \
       batch, on the deterministic simulator and the concurrent executor — \
       latencies are logical ticks; executor wall times on single-core \
       containers include domain scheduling overhead"
      (fun ~smoke -> b10_serve_table ~quick:smoke ())
      b10_spec;
    table "b11_dpor"
      "B11: the E11 A_nuc verification under each reduction (none / sleep \
       sets / happens-before DPOR) — pass re-checks verdict and \
       distinct-state equality against the unreduced row"
      (fun ~smoke -> b11_dpor_table ~quick:smoke ())
      b11_spec;
    table "b12_codec"
      "B12: packed canonical-state codec — retained bytes per state of the \
       config-keyed memo vs the packed bytes + interning pools over the same \
       distinct-state set (pass needs equal counts and >= 5x)"
      (fun ~smoke -> b12_codec_table ~quick:smoke ())
      b12_spec;
    table "b13_quorum"
      "B13: MR over pluggable quorum families — decision latency vs \
       structural resilience (crashes at time 0; pass checks decided = live \
       run by run, where live means the surviving set is itself a quorum)"
      (fun ~smoke -> b13_quorum_table ~quick:smoke ())
      b13_spec;
    table "b14_ring"
      "B14: the serving workload across {log, snapshot} read modes on the \
       concurrent executor and its lock-free ring transport — lock_ops / \
       cas_retries / sync_ops are the contention story (the ring locks only \
       on overflow spills; sharded counters sync per round, not per step); \
       ok needs no divergence and stale_max within the declared bound"
      (fun ~smoke -> b14_ring_table ~quick:smoke ())
      b14_spec;
    table "b4_micro" "B4: microbenchmarks (bechamel, ns per run)" micro_table
      micro_spec;
    metrics_section;
  ]

let document results =
  Report.Obj
    (("schema_version", Report.Int 1)
    :: ("generated_at_unix", Report.Float (Unix.time ()))
    :: results)
