(* Tests for the paper's contribution: quorum histories and the
   distrust function, A_nuc (Thm 6.27), the composed stack
   (Thm 6.28), T_{Sigma-nu -> Sigma-nu+} (Thm 6.7), T_{D -> Sigma-nu}
   (Thms 5.4 and 5.8), the contamination scenario of Section 6.3, and
   the separation of Theorem 7.1. *)
open Procset
module Anuc = Core.Anuc
module Qhist = Core.Qhist

let q = Pset.of_list

(* -------------------------------------------------------------- *)
(* Quorum histories and distrust                                   *)
(* -------------------------------------------------------------- *)

let test_qhist_basics () =
  let h = Qhist.add Qhist.empty 0 (q [ 0; 1 ]) in
  let h = Qhist.add h 1 (q [ 1; 2 ]) in
  Alcotest.(check bool) "knows own" true (Qhist.knows h 0 (q [ 0; 1 ]));
  Alcotest.(check bool) "not knows other" false (Qhist.knows h 0 (q [ 1; 2 ]));
  let h' = Qhist.add Qhist.empty 2 (q [ 2; 3 ]) in
  let m = Qhist.import h h' in
  Alcotest.(check bool) "import keeps both" true
    (Qhist.knows m 1 (q [ 1; 2 ]) && Qhist.knows m 2 (q [ 2; 3 ]))

(* The scenario of the paper's informal description (Section 6.3):
   p = 0 saw P = {0,1}; q = 3 saw Q = {2,3}; r = 0 is not considered
   faulty by 0 (its own quorums intersect themselves), so 0 distrusts
   3. *)
let test_distrust_nonintersecting () =
  let h = Qhist.add Qhist.empty 0 (q [ 0; 1 ]) in
  let h = Qhist.add h 3 (q [ 2; 3 ]) in
  Alcotest.(check bool) "0 considers 3 faulty" true
    (Pset.mem 3 (Qhist.considered_faulty ~self:0 h));
  Alcotest.(check bool) "0 distrusts 3" true (Qhist.distrusts ~self:0 ~n:4 h 3);
  Alcotest.(check bool) "0 does not distrust itself" false
    (Qhist.distrusts ~self:0 ~n:4 h 0)

(* The subtle case behind Lemma 6.22: two processes q and r with
   mutually disjoint quorums, both disjoint from nobody else — the
   observer distrusts BOTH (each is the "r not considered faulty"
   witness for the other). *)
let test_distrust_symmetric_pair () =
  let h = Qhist.add Qhist.empty 0 (q [ 0; 1; 2; 3 ]) in
  let h = Qhist.add h 2 (q [ 1; 2 ]) in
  let h = Qhist.add h 3 (q [ 0; 3 ]) in
  (* neither 2 nor 3 conflicts with 0's own quorum, so F_0 is empty *)
  Alcotest.(check bool) "F_0 empty" true
    (Pset.is_empty (Qhist.considered_faulty ~self:0 h));
  Alcotest.(check bool) "0 distrusts 2" true (Qhist.distrusts ~self:0 ~n:4 h 2);
  Alcotest.(check bool) "0 distrusts 3" true (Qhist.distrusts ~self:0 ~n:4 h 3);
  Alcotest.(check bool) "0 trusts 1 (no quorums known)" false
    (Qhist.distrusts ~self:0 ~n:4 h 1)

(* Processes already considered faulty cannot serve as distrust
   witnesses: if 0's own quorum conflicts with 2's, then 2 lands in
   F_0 and a conflict between 2 and 3 alone does not make 0 distrust
   3. *)
let test_distrust_discounts_considered_faulty () =
  let h = Qhist.add Qhist.empty 0 (q [ 0; 1 ]) in
  let h = Qhist.add h 2 (q [ 2; 3 ]) in
  (* 2 in F_0 *)
  Alcotest.(check bool) "2 considered faulty" true
    (Pset.mem 2 (Qhist.considered_faulty ~self:0 h));
  (* 3's quorums conflict only with 2's *)
  let h = Qhist.add h 3 (q [ 0; 1; 3 ]) in
  Alcotest.(check bool) "3 not distrusted: only conflicts with F_0" false
    (Qhist.distrusts ~self:0 ~n:4 h 3);
  (* but 2 is distrusted (witnessed by 0 itself) *)
  Alcotest.(check bool) "2 distrusted" true (Qhist.distrusts ~self:0 ~n:4 h 2)

(* Observations 6.10/6.11 as properties: quorum histories and the
   considered-faulty set only grow. *)
let gen_quorum =
  QCheck.map
    (fun bits ->
      let qq =
        List.fold_left
          (fun acc p ->
            if bits land (1 lsl p) <> 0 then Pset.add p acc else acc)
          Pset.empty [ 0; 1; 2; 3 ]
      in
      if Pset.is_empty qq then Pset.singleton (bits mod 4) else qq)
    QCheck.(int_bound 15)

let gen_hist =
  QCheck.map
    (fun entries ->
      List.fold_left
        (fun h (owner, qq) -> Qhist.add h (owner mod 4) qq)
        Qhist.empty entries)
    QCheck.(small_list (pair (int_bound 3) gen_quorum))

let prop_qhist_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"Obs 6.10/6.11: knows and considered_faulty are monotone"
       ~count:300
       QCheck.(triple gen_hist (int_bound 3) gen_quorum)
       (fun (h, owner, qq) ->
         let h' = Qhist.add h owner qq in
         let knows_preserved =
           List.for_all
             (fun r ->
               Qset.for_all
                 (fun old -> Qhist.knows h' r old)
                 (Qhist.get h r))
             [ 0; 1; 2; 3 ]
         in
         let faulty_preserved =
           List.for_all
             (fun self ->
               Pset.subset
                 (Qhist.considered_faulty ~self h)
                 (Qhist.considered_faulty ~self h'))
             [ 0; 1; 2; 3 ]
         in
         knows_preserved && faulty_preserved))

let prop_qhist_import_union =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"import is a pointwise upper bound of both histories"
       ~count:300
       QCheck.(pair gen_hist gen_hist)
       (fun (a, b) ->
         let m = Qhist.import a b in
         List.for_all
           (fun r ->
             Qset.for_all (fun qq -> Qhist.knows m r qq) (Qhist.get a r)
             && Qset.for_all (fun qq -> Qhist.knows m r qq) (Qhist.get b r))
           [ 0; 1; 2; 3 ]))

(* Lemma 6.20 as a property: a process never considers itself faulty
   when its quorums are self-including. *)
let prop_qhist_never_self_faulty =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Lemma 6.20: self-including quorums keep p out                              of F_p"
       ~count:300
       QCheck.(pair (int_bound 3) (small_list gen_quorum))
       (fun (self, quorums) ->
         let h =
           List.fold_left
             (fun h qq -> Qhist.add h self (Pset.add self qq))
             Qhist.empty quorums
         in
         not (Pset.mem self (Qhist.considered_faulty ~self h))))

(* The quadratic distrust test that [Qhist] answers with a shortcut:
   F_p first, then every pair of known quorums scanned. It folds over
   every pid instead of [h]'s bindings, which is the same for any
   history over pids below [Pset.max_size]. *)
module Ref_distrust = struct
  let considered_faulty ~self h =
    let own = Qhist.get h self in
    List.fold_left
      (fun acc q' ->
        if Qset.exists_disjoint_pair (Qhist.get h q') own then Pset.add q' acc
        else acc)
      Pset.empty
      (Pid.all ~n:Pset.max_size)

  let distrusts ~self ~n h q =
    let fp = considered_faulty ~self h in
    let hq = Qhist.get h q in
    if Qset.is_empty hq then false
    else
      List.exists
        (fun r ->
          (not (Pset.mem r fp)) && Qset.exists_disjoint_pair hq (Qhist.get h r))
        (Pid.all ~n)
end

type ref_case = { n : int; h : Qhist.t; sets : Pset.t list }

(* Histories at n = 2..8 and n = 62 over the empty quorum, the full
   set and random subsets (sparse or dense), with some processes left
   without quorums. A pivot-anchored history adds the pivot to every
   quorum, as Sigma-nu+ does for correct processes in a crash-free
   run; a mostly anchored one leaves a fifth of them free, as a
   crashed process's own quorums may be; a free one anchors none. *)
let gen_ref_case =
  let open QCheck.Gen in
  let* n = frequency [ (7, int_range 2 8); (1, return 62) ] in
  let* anchor_rate = oneofl [ 1.0; 0.8; 0.0 ] in
  let* density = oneofl [ 0.15; 0.5 ] in
  let* pivot = int_bound (n - 1) in
  let subset density =
    map
      (fun draws ->
        snd
          (List.fold_left
             (fun (i, s) u -> (i + 1, if u < density then Pset.add i s else s))
             (0, Pset.empty) draws))
      (list_repeat n (float_bound_exclusive 1.))
  in
  let quorum =
    let* qq =
      frequency
        [ (1, return Pset.empty); (1, return (Pset.full ~n)); (6, subset density) ]
    in
    let* u = float_bound_exclusive 1. in
    return (if u < anchor_rate then Pset.add pivot qq else qq)
  in
  let* entries = list_size (int_bound 12) (pair (int_bound (n - 1)) quorum) in
  let* sets = list_repeat 4 (subset 0.5) in
  let h = List.fold_left (fun h (r, qq) -> Qhist.add h r qq) Qhist.empty entries in
  return { n; h; sets = Pset.empty :: Pset.full ~n :: sets }

let print_ref_case { n; h; sets } =
  Format.asprintf "n = %d, h = %a, sets = %s" n Qhist.pp h
    (String.concat " " (List.map Pset.to_string sets))

let prop_qhist_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"shortcut distrust = quadratic reference (F_p, distrusts, any)"
       ~count:1000
       (QCheck.make ~print:print_ref_case gen_ref_case)
       (fun { n; h; sets } ->
         let pids = Pid.all ~n in
         List.for_all
           (fun self ->
             Pset.equal
               (Qhist.considered_faulty ~self h)
               (Ref_distrust.considered_faulty ~self h)
             && List.for_all
                  (fun q ->
                    Qhist.distrusts ~self ~n h q
                    = Ref_distrust.distrusts ~self ~n h q)
                  pids
             && List.for_all
                  (fun s ->
                    Qhist.distrusts_any ~self ~n h s
                    = Pset.exists (Ref_distrust.distrusts ~self ~n h) s)
                  sets)
           pids))

(* -------------------------------------------------------------- *)
(* A_nuc sweeps (Theorem 6.27)                                     *)
(* -------------------------------------------------------------- *)

let seeds = [ 0; 1; 2; 3; 4; 5 ]

let anuc : (module Tutil.CONSENSUS) =
  (module struct
    include Anuc

    type message = Anuc.message

    let pp_message = Anuc.pp_message
    let equal_message = Anuc.equal_message

    let step = Anuc.step
  end)

let test_anuc_benign () =
  List.iter
    (fun n ->
      let r =
        Tutil.sweep anuc ~family:Tutil.benign_nu_plus
          ~flavour:Consensus.Spec.Nonuniform ~n
          ~t_range:(List.init (n - 1) (fun i -> i + 1))
          ~seeds ~max_steps:9000 ()
      in
      Alcotest.(check bool) "ran" true (r.Tutil.runs > 0))
    [ 3; 4; 5; 6; 7 ]

(* Exhaustive coverage of the small universe: every faulty set of
   E_2(3) (including none), with early and late crash timings. *)
let test_anuc_exhaustive_small () =
  let n = 3 in
  let module R = Sim.Runner.Make (Anuc) in
  let faulty_sets =
    List.filter
      (fun s -> Pset.cardinal s <= 2)
      (Pset.subsets (Pset.full ~n))
  in
  List.iter
    (fun faulty_set ->
      List.iter
        (fun crash_time ->
          let crashes =
            Pset.fold (fun p acc -> (p, crash_time) :: acc) faulty_set []
          in
          let pattern = Sim.Failure_pattern.make ~n ~crashes in
          let oracle = Tutil.benign_nu_plus.Tutil.make ~seed:1 pattern in
          let correct = Sim.Failure_pattern.correct pattern in
          let proposals p = p mod 2 in
          let run =
            R.exec ~seed:1 ~record:false ~pattern
              ~fd:oracle.Fd.Oracle.query ~inputs:proposals ~max_steps:6000
              ~stop:(fun st _ ->
                Pset.for_all (fun p -> Anuc.decision (st p) <> None) correct)
              ()
          in
          let outcome =
            Consensus.Spec.outcome ~pattern ~proposals ~decisions:(fun p ->
                Anuc.decision run.R.states.(p))
          in
          match Consensus.Spec.check Consensus.Spec.Nonuniform outcome with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "faulty=%a crash@%d: %s" Pset.pp faulty_set
              crash_time e)
        [ 5; 60 ])
    faulty_sets

let test_anuc_adversarial () =
  List.iter
    (fun n ->
      let r =
        Tutil.sweep anuc ~family:Tutil.adversarial_nu_plus
          ~flavour:Consensus.Spec.Nonuniform ~n
          ~t_range:(List.init (n - 1) (fun i -> i + 1))
          ~seeds ()
      in
      Alcotest.(check bool) "ran" true (r.Tutil.runs > 0))
    [ 3; 4; 5 ]

(* The quorum-awareness gate: seen_p[Q] is set no earlier than round
   1, and deciding needs seen_p[Q] < k_p, so no decision can happen in
   round 1. *)
let test_anuc_no_round_one_decision () =
  List.iter
    (fun seed ->
      let n = 4 in
      let pattern = Sim.Failure_pattern.make ~n ~crashes:[] in
      let oracle = Tutil.benign_nu_plus.Tutil.make ~seed pattern in
      let module R = Sim.Runner.Make (Anuc) in
      let run =
        R.exec ~seed ~pattern ~fd:oracle.Fd.Oracle.query
          ~inputs:(fun p -> p mod 2)
          ~max_steps:5000
          ~stop:(fun st _ ->
            Pset.for_all (fun p -> Anuc.decision (st p) <> None)
              (Pset.full ~n))
          ()
      in
      Array.iter
        (fun st ->
          match Anuc.decision_round st with
          | Some r ->
            Alcotest.(check bool) "decision round >= 2" true (r >= 2)
          | None -> ())
        run.R.states)
    seeds

(* The minimum system: n = 2 with up to one crash. *)
let test_anuc_n2 () =
  let r =
    Tutil.sweep anuc ~family:Tutil.benign_nu_plus
      ~flavour:Consensus.Spec.Nonuniform ~n:2 ~t_range:[ 1 ]
      ~seeds:[ 0; 1; 2; 3 ] ()
  in
  Alcotest.(check bool) "ran" true (r.Tutil.runs > 0)

(* Everyone except the pivot crashes early: quorums shrink to the
   singleton and the survivor decides alone. *)
let test_anuc_lone_survivor () =
  let n = 4 in
  let pattern =
    Sim.Failure_pattern.make ~n ~crashes:[ (1, 10); (2, 10); (3, 10) ]
  in
  let oracle = Tutil.benign_nu_plus.Tutil.make ~seed:4 pattern in
  let module R = Sim.Runner.Make (Anuc) in
  let run =
    R.exec ~seed:4 ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs:(fun p -> p mod 2)
      ~max_steps:6000
      ~stop:(fun st _ -> Anuc.decision (st 0) <> None)
      ()
  in
  Alcotest.(check bool) "survivor decided" true run.R.stopped_early;
  match Anuc.decision run.R.states.(0) with
  | Some v ->
    Alcotest.(check bool) "decided a proposed value" true (v = 0 || v = 1)
  | None -> Alcotest.fail "no decision"

(* Unanimous proposals decide that value. *)
let test_anuc_validity_unanimous () =
  let n = 4 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (3, 30) ] in
  let oracle = Tutil.benign_nu_plus.Tutil.make ~seed:2 pattern in
  let module R = Sim.Runner.Make (Anuc) in
  List.iter
    (fun v ->
      let run =
        R.exec ~seed:2 ~pattern ~fd:oracle.Fd.Oracle.query
          ~inputs:(fun _ -> v)
          ~max_steps:5000
          ~stop:(fun st _ ->
            Pset.for_all (fun p -> Anuc.decision (st p) <> None)
              (Sim.Failure_pattern.correct pattern))
          ()
      in
      Pset.iter
        (fun p ->
          Alcotest.(check (option int))
            (Printf.sprintf "p%d decides %d" p v)
            (Some v)
            (Anuc.decision run.R.states.(p)))
        (Sim.Failure_pattern.correct pattern))
    [ 0; 1 ]

(* Lemmas 6.20/6.21 as runtime invariants: at every step of a run
   under a valid Sigma-nu+ history, no process considers itself
   faulty, and no correct process considers another correct process
   faulty; and by the end (Lemma 6.12's consequence) correct processes
   do not distrust each other. *)
let test_anuc_lemma_invariants () =
  List.iter
    (fun seed ->
      let n = 4 in
      let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (3, 40) ] in
      let oracle = Tutil.adversarial_nu_plus.Tutil.make ~seed pattern in
      let correct = Sim.Failure_pattern.correct pattern in
      let module R = Sim.Runner.Make (Anuc) in
      let run =
        R.exec ~seed ~pattern ~fd:oracle.Fd.Oracle.query
          ~inputs:(fun p -> p mod 2)
          ~max_steps:3000
          ~stop:(fun st _ ->
            Pset.for_all (fun p -> Anuc.decision (st p) <> None) correct)
          ()
      in
      Array.iter
        (fun step ->
          let p = step.R.pid in
          let fp = Anuc.considered_faulty ~self:p step.R.state_after in
          Alcotest.(check bool)
            (Printf.sprintf "Lemma 6.20: p%d not in its own F_p (t=%d)" p
               step.R.time)
            false (Pset.mem p fp);
          if Pset.mem p correct then
            Alcotest.(check bool)
              (Printf.sprintf
                 "Lemma 6.21: correct p%d considers no correct process                   faulty (t=%d)"
                 p step.R.time)
              false
              (Pset.intersects fp correct))
        run.R.steps;
      (* Lemma 6.12's consequence at the end of the run *)
      Pset.iter
        (fun p ->
          Pset.iter
            (fun q ->
              Alcotest.(check bool)
                (Printf.sprintf "correct p%d does not distrust correct p%d"
                   p q)
                false
                (Core.Qhist.distrusts ~self:p ~n
                   (Anuc.history run.R.states.(p))
                   q))
            correct)
        correct)
    [ 0; 1; 2 ]

(* -------------------------------------------------------------- *)
(* The composed stack (Theorem 6.28)                               *)
(* -------------------------------------------------------------- *)

let stack : (module Tutil.CONSENSUS) =
  (module struct
    include Core.Stack

    type message = Core.Stack.message

    let pp_message = Core.Stack.pp_message
    let equal_message = Core.Stack.equal_message
    let step = Core.Stack.step
  end)

let test_stack_benign () =
  let r =
    Tutil.sweep stack ~family:Tutil.benign_nu
      ~flavour:Consensus.Spec.Nonuniform ~n:4 ~t_range:[ 1; 2; 3 ]
      ~seeds:[ 0; 1; 2 ] ~max_steps:9000 ()
  in
  Alcotest.(check bool) "ran" true (r.Tutil.runs > 0)

let test_stack_adversarial () =
  let r =
    Tutil.sweep stack ~family:Tutil.adversarial_nu
      ~flavour:Consensus.Spec.Nonuniform ~n:4 ~t_range:[ 2; 3 ]
      ~seeds:[ 0; 1 ] ~max_steps:9000 ()
  in
  Alcotest.(check bool) "ran" true (r.Tutil.runs > 0)

(* -------------------------------------------------------------- *)
(* T_{Sigma-nu -> Sigma-nu+} (Theorem 6.7)                         *)
(* -------------------------------------------------------------- *)

module Tsp_runner = Sim.Runner.Make (Core.T_sigma_plus)

let emulated_tsp_history run =
  let samples =
    Array.to_list run.Tsp_runner.steps
    |> List.map (fun s ->
           ( s.Tsp_runner.pid,
             s.Tsp_runner.time,
             Sim.Fd_value.Quorum
               (Core.T_sigma_plus.output s.Tsp_runner.state_after) ))
  in
  Fd.History.of_samples
    ~n:(Sim.Failure_pattern.n run.Tsp_runner.pattern)
    samples

let test_t_sigma_plus_emulation () =
  let cases =
    [
      (Sim.Failure_pattern.make ~n:4 ~crashes:[], Fd.Oracle.Faulty_arbitrary);
      ( Sim.Failure_pattern.make ~n:4 ~crashes:[ (3, 40) ],
        Fd.Oracle.Faulty_arbitrary );
      ( Sim.Failure_pattern.make ~n:4 ~crashes:[ (2, 30); (3, 60) ],
        Fd.Oracle.Faulty_split );
      ( Sim.Failure_pattern.make ~n:5 ~crashes:[ (2, 20); (3, 40); (4, 60) ],
        Fd.Oracle.Faulty_split );
    ]
  in
  List.iter
    (fun (pattern, mode) ->
      List.iter
        (fun seed ->
          let oracle =
            Fd.Oracle.sigma_nu ~seed ~stab_time:80 ~faulty_mode:mode pattern
          in
          let run =
            Tsp_runner.exec ~seed ~pattern ~fd:oracle.Fd.Oracle.query
              ~inputs:(fun _ -> ())
              ~max_steps:700 ()
          in
          let h = emulated_tsp_history run in
          match Fd.Check.sigma_nu_plus ~max_stab:500 pattern h with
          | Ok () -> ()
          | Error v ->
            Alcotest.failf "T_sigma_plus %a seed %d: %a"
              Sim.Failure_pattern.pp pattern seed Fd.Check.pp_violation v)
        [ 0; 1; 2 ])
    cases

(* -------------------------------------------------------------- *)
(* T_{D -> Sigma-nu} (Theorems 5.4 and 5.8)                        *)
(* -------------------------------------------------------------- *)

module Tx_mr = Core.T_extract.Make (struct
  include Consensus.Mr.With_quorum

  type message = Consensus.Mr.message

  let pp_message = Consensus.Mr.pp_message
  let equal_message = Consensus.Mr.equal_message
  let step = Consensus.Mr.With_quorum.step
  let decision = Consensus.Mr.With_quorum.decision
end)

module Tx_mr_runner = Sim.Runner.Make (Tx_mr)

module Tx_anuc = Core.T_extract.Make (struct
  include Anuc

  type message = Anuc.message

  let pp_message = Anuc.pp_message
  let equal_message = Anuc.equal_message
  let step = Anuc.step
  let decision = Anuc.decision
end)

module Tx_anuc_runner = Sim.Runner.Make (Tx_anuc)

(* D = (Omega, Sigma) with A = MR-Sigma solves UNIFORM consensus, so
   Fig. 2 extracts full Sigma (Thm 5.8) — which is in particular
   Sigma-nu (Thm 5.4). *)
let test_t_extract_uniform_gives_sigma () =
  let patterns =
    [
      Sim.Failure_pattern.make ~n:4 ~crashes:[ (3, 50) ];
      Sim.Failure_pattern.make ~n:4 ~crashes:[ (1, 30); (2, 30); (3, 30) ];
      Sim.Failure_pattern.make ~n:5 ~crashes:[ (0, 25); (4, 45) ];
    ]
  in
  List.iter
    (fun pattern ->
      List.iter
        (fun seed ->
          let oracle =
            Fd.Oracle.pair
              (Fd.Oracle.omega ~seed ~stab_time:60 pattern)
              (Fd.Oracle.sigma ~seed ~stab_time:60 pattern)
          in
          let run =
            Tx_mr_runner.exec ~seed ~pattern ~fd:oracle.Fd.Oracle.query
              ~inputs:(fun _ -> ())
              ~max_steps:700 ()
          in
          let extractions =
            Array.fold_left
              (fun acc st -> acc + Tx_mr.extractions st)
              0 run.Tx_mr_runner.states
          in
          Alcotest.(check bool) "made extractions" true (extractions > 0);
          let samples =
            Array.to_list run.Tx_mr_runner.steps
            |> List.map (fun s ->
                   ( s.Tx_mr_runner.pid,
                     s.Tx_mr_runner.time,
                     Sim.Fd_value.Quorum
                       (Tx_mr.output s.Tx_mr_runner.state_after) ))
          in
          let h =
            Fd.History.of_samples ~n:(Sim.Failure_pattern.n pattern) samples
          in
          (match Fd.Check.sigma ~max_stab:560 pattern h with
          | Ok () -> ()
          | Error v ->
            Alcotest.failf "T_extract(MR-Sigma) %a seed %d (Sigma): %a"
              Sim.Failure_pattern.pp pattern seed Fd.Check.pp_violation v);
          match Fd.Check.sigma_nu ~max_stab:560 pattern h with
          | Ok () -> ()
          | Error v ->
            Alcotest.failf "T_extract(MR-Sigma) %a seed %d (Sigma-nu): %a"
              Sim.Failure_pattern.pp pattern seed Fd.Check.pp_violation v)
        [ 0; 1 ])
    patterns

(* D = (Omega, Sigma-nu+) with A = A_nuc solves only NONUNIFORM
   consensus; Fig. 2 must still extract Sigma-nu (Thm 5.4). Also run
   with perfect information as the quorum component — any detector
   that solves the problem must be reducible. *)
let test_t_extract_nonuniform_gives_sigma_nu () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[ (2, 30); (3, 50) ] in
  List.iter
    (fun seed ->
      let quorum_part =
        if seed mod 2 = 0 then
          Fd.Oracle.sigma_nu_plus ~seed ~stab_time:60 pattern
        else Fd.Oracle.perfect_plus pattern
      in
      let oracle =
        Fd.Oracle.pair (Fd.Oracle.omega ~seed ~stab_time:60 pattern)
          quorum_part
      in
      let run =
        Tx_anuc_runner.exec ~seed ~pattern ~fd:oracle.Fd.Oracle.query
          ~inputs:(fun _ -> ())
          ~max_steps:2600 ()
      in
      let extractions =
        Array.fold_left
          (fun acc st -> acc + Tx_anuc.extractions st)
          0 run.Tx_anuc_runner.states
      in
      Alcotest.(check bool) "made extractions" true (extractions > 0);
      let samples =
        Array.to_list run.Tx_anuc_runner.steps
        |> List.map (fun s ->
               ( s.Tx_anuc_runner.pid,
                 s.Tx_anuc_runner.time,
                 Sim.Fd_value.Quorum
                   (Tx_anuc.output s.Tx_anuc_runner.state_after) ))
      in
      let h =
        Fd.History.of_samples ~n:(Sim.Failure_pattern.n pattern) samples
      in
      match Fd.Check.sigma_nu ~max_stab:2100 pattern h with
      | Ok () -> ()
      | Error v ->
        Alcotest.failf "T_extract(A_nuc) seed %d: %a" seed
          Fd.Check.pp_violation v)
    [ 0; 1 ]

(* -------------------------------------------------------------- *)
(* The contamination scenario (Section 6.3)                        *)
(* -------------------------------------------------------------- *)

(* The Section 6.3 scenario, via the shared scripted driver. *)
let test_contamination_naive_mr () =
  let o = Core.Scenario.contamination_naive_mr () in
  Alcotest.(check (option int)) "p0 decided 0" (Some 0) o.Core.Scenario.decisions.(0);
  Alcotest.(check (option int)) "p1 decided 1" (Some 1) o.Core.Scenario.decisions.(1);
  Alcotest.(check bool) "nonuniform agreement violated" true
    o.Core.Scenario.agreement_violated;
  match o.Core.Scenario.history_valid with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "adversary history is not a legal (Omega, Sigma-nu) \
                    history: %a" Fd.Check.pp_violation v

(* Cross-layer check: a recorded A_nuc consensus run passes the
   runner's independent model-conformance validator (run properties
   (1)-(7) of Section 2.6). *)
let test_anuc_run_conforms_to_model () =
  let n = 4 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (3, 50) ] in
  let oracle = Tutil.benign_nu_plus.Tutil.make ~seed:6 pattern in
  let module R = Sim.Runner.Make (Anuc) in
  let run =
    R.exec ~seed:6 ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs:(fun p -> p mod 2)
      ~max_steps:3000
      ~stop:(fun st _ ->
        Pset.for_all (fun p -> Anuc.decision (st p) <> None)
          (Sim.Failure_pattern.correct pattern))
      ()
  in
  match
    R.conformance ~fd:oracle.Fd.Oracle.query
      ~inputs:(fun p -> p mod 2)
      run
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* A_nuc is strictly nonuniform (experiment E10): a legal partitioned
   Sigma-nu+ history lets the faulty side decide differently. *)
let test_anuc_strictly_nonuniform () =
  let r = Experiments.e10_not_uniform () in
  Alcotest.(check bool) (r.Experiments.measured) true r.Experiments.pass

(* -------------------------------------------------------------- *)
(* The mechanism ablation                                           *)
(* -------------------------------------------------------------- *)

(* Both safety mechanisms disabled: the A_nuc skeleton falls to the
   very script that the full algorithm (and each single-mechanism
   variant) resists. *)
let test_ablation_unsafe_falls () =
  let o = Core.Scenario.contamination_anuc_unsafe () in
  Alcotest.(check (option int)) "p0 decided 0" (Some 0)
    o.Core.Scenario.decisions.(0);
  Alcotest.(check (option int)) "p1 decided 1" (Some 1)
    o.Core.Scenario.decisions.(1);
  Alcotest.(check bool) "violated" true o.Core.Scenario.agreement_violated;
  match o.Core.Scenario.history_valid with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "adversary history invalid: %a" Fd.Check.pp_violation v

let test_ablation_protected_variants_resist () =
  (* full algorithm: the distrust mechanism blocks the script *)
  let module C_full = Core.Scenario.Contaminate (Core.Anuc) in
  (match C_full.run () with
  | Error _ -> ()
  | Ok o ->
    Alcotest.(check bool)
      "if the script completes against A_nuc, agreement must hold" false
      o.Core.Scenario.agreement_violated);
  (* distrust alone also blocks it *)
  let module C_noaw = Core.Scenario.Contaminate (Core.Anuc.Without_awareness) in
  (match C_noaw.run () with
  | Error _ -> ()
  | Ok o ->
    Alcotest.(check bool)
      "without awareness, distrust must still prevent the violation" false
      o.Core.Scenario.agreement_violated);
  (* awareness alone defuses it (the script completes, but the delayed
     decision means contamination sweeps every correct process alike) *)
  let module C_nodis = Core.Scenario.Contaminate (Core.Anuc.Without_distrust) in
  match C_nodis.run () with
  | Error _ -> ()
  | Ok o ->
    Alcotest.(check bool)
      "without distrust, awareness must still prevent the violation" false
      o.Core.Scenario.agreement_violated

let test_ablation_sweep_shape () =
  let rows = Experiments.ablation ~quick:true () in
  (match rows with
  | [ full; noaw; nodis; noboth ] ->
    Alcotest.(check bool) "full resists script" false
      full.Experiments.script_violated;
    Alcotest.(check int) "full has no sweep violations" 0
      full.Experiments.sweep_violations;
    Alcotest.(check bool) "-awareness resists script" false
      noaw.Experiments.script_violated;
    Alcotest.(check bool) "-distrust resists script" false
      nodis.Experiments.script_violated;
    Alcotest.(check bool) "-both falls to the script" true
      noboth.Experiments.script_violated;
    (* the awareness gate costs rounds: the full algorithm needs
       strictly more rounds than the variant without it *)
    Alcotest.(check bool) "awareness costs rounds" true
      (full.Experiments.a_avg_rounds > noaw.Experiments.a_avg_rounds)
  | _ -> Alcotest.fail "expected four ablation rows")

(* -------------------------------------------------------------- *)
(* Separation (Theorem 7.1)                                        *)
(* -------------------------------------------------------------- *)

module Scratch_runner = Sim.Runner.Make (Core.Separation.Sigma_scratch)

(* IF direction: with t < n/2, the from-scratch algorithm emulates
   Sigma. *)
let test_sigma_scratch_is_sigma_when_majority () =
  let cases =
    [
      (3, 1, [ (2, 35) ]);
      (5, 2, [ (0, 20); (4, 50) ]);
      (7, 3, [ (1, 15); (3, 30); (6, 60) ]);
    ]
  in
  List.iter
    (fun (n, t, crashes) ->
      let pattern = Sim.Failure_pattern.make ~n ~crashes in
      List.iter
        (fun seed ->
          let run =
            Scratch_runner.exec ~seed ~pattern
              ~fd:(fun _ _ -> Sim.Fd_value.Unit)
              ~inputs:(fun _ -> t)
              ~max_steps:600 ()
          in
          let samples =
            Array.to_list run.Scratch_runner.steps
            |> List.map (fun s ->
                   ( s.Scratch_runner.pid,
                     s.Scratch_runner.time,
                     Sim.Fd_value.Quorum
                       (Core.Separation.Sigma_scratch.output
                          s.Scratch_runner.state_after) ))
          in
          let h = Fd.History.of_samples ~n samples in
          match Fd.Check.sigma ~max_stab:450 pattern h with
          | Ok () -> ()
          | Error v ->
            Alcotest.failf "sigma_scratch n=%d t=%d seed %d: %a" n t seed
              Fd.Check.pp_violation v)
        [ 0; 1 ])
    cases

(* Liveness of the from-scratch emulation: rounds keep completing. *)
let test_sigma_scratch_liveness () =
  let n = 5 and t = 2 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (0, 30); (4, 60) ] in
  let run =
    Scratch_runner.exec ~seed:2 ~pattern
      ~fd:(fun _ _ -> Sim.Fd_value.Unit)
      ~inputs:(fun _ -> t)
      ~max_steps:600 ()
  in
  Pset.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d completed many rounds" p)
        true
        (Core.Separation.Sigma_scratch.rounds_completed
           run.Scratch_runner.states.(p)
        > 15))
    (Sim.Failure_pattern.correct pattern)

(* ONLY IF direction: with t >= n/2 the two-run construction yields
   disjoint quorums against the from-scratch candidate. *)
let test_attack_succeeds_at_half () =
  let module Atk = Core.Separation.Attack (Core.Separation.Sigma_scratch) in
  List.iter
    (fun (n, t) ->
      match Atk.run ~n ~t ~inputs:(fun _ -> t) () with
      | Ok o ->
        Alcotest.(check bool)
          (Printf.sprintf "disjoint quorums for n=%d t=%d" n t)
          true o.Atk.disjoint;
        Alcotest.(check bool) "A' inside A" true
          (Pset.subset o.Atk.quorum_a o.Atk.part_a);
        Alcotest.(check bool) "B' inside B" true
          (Pset.subset o.Atk.quorum_b o.Atk.part_b)
      | Error e -> Alcotest.failf "attack n=%d t=%d: %s" n t e)
    [ (4, 2); (4, 3); (5, 3); (6, 3); (6, 4); (8, 4) ]

(* The attack construction is inapplicable below n/2 — the regime
   where Sigma is implementable. *)
let test_attack_refuses_below_half () =
  let module Atk = Core.Separation.Attack (Core.Separation.Sigma_scratch) in
  List.iter
    (fun (n, t) ->
      match Atk.run ~n ~t ~inputs:(fun _ -> t) () with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "attack should refuse n=%d t=%d" n t)
    [ (4, 1); (5, 2); (9, 4) ]

(* Running the same attack against T_{Sigma-nu -> Sigma-nu+}: the
   emulated quorums may come out disjoint, but the nonintersecting
   one belongs to processes that are faulty in R' — exactly the
   weakening that keeps Sigma-nu+ alive where Sigma dies. *)
let test_attack_on_t_sigma_plus_is_nu_legal () =
  let module Atk = Core.Separation.Attack (struct
    include Core.T_sigma_plus

    type message = Core.T_sigma_plus.message

    let pp_message = Core.T_sigma_plus.pp_message
    let equal_message = Core.T_sigma_plus.equal_message
    let step = Core.T_sigma_plus.step
  end) in
  (* T_sigma_plus consumes the quorum component only *)
  match Atk.run ~n:4 ~t:2 ~inputs:(fun _ -> ()) ~max_steps:4000 () with
  | Ok o ->
    Alcotest.(check bool) "quorums disjoint" true o.Atk.disjoint;
    (* in R' the A side is faulty: the disjoint quorum A' is entirely
       faulty there, so conditional nonintersection holds *)
    Alcotest.(check bool) "A' subset of the crashed side" true
      (Pset.subset o.Atk.quorum_a o.Atk.part_a)
  | Error e -> Alcotest.failf "attack on T_sigma_plus: %s" e

let () =
  Alcotest.run "core"
    [
      ( "qhist-distrust",
        [
          Alcotest.test_case "history basics" `Quick test_qhist_basics;
          Alcotest.test_case "nonintersecting quorums" `Quick
            test_distrust_nonintersecting;
          Alcotest.test_case "symmetric distrust pair" `Quick
            test_distrust_symmetric_pair;
          Alcotest.test_case "considered-faulty discount" `Quick
            test_distrust_discounts_considered_faulty;
          prop_qhist_monotone;
          prop_qhist_import_union;
          prop_qhist_never_self_faulty;
          prop_qhist_matches_reference;
        ] );
      ( "anuc",
        [
          Alcotest.test_case "benign sweeps (Thm 6.27)" `Slow test_anuc_benign;
          Alcotest.test_case "adversarial sweeps" `Slow test_anuc_adversarial;
          Alcotest.test_case "no round-1 decision (quorum awareness)" `Quick
            test_anuc_no_round_one_decision;
          Alcotest.test_case "n = 2" `Quick test_anuc_n2;
          Alcotest.test_case "exhaustive small universe" `Quick
            test_anuc_exhaustive_small;
          Alcotest.test_case "lone survivor" `Quick test_anuc_lone_survivor;
          Alcotest.test_case "unanimous validity" `Quick
            test_anuc_validity_unanimous;
          Alcotest.test_case "Lemma 6.20/6.21 runtime invariants" `Quick
            test_anuc_lemma_invariants;
          Alcotest.test_case "strictly nonuniform (E10)" `Quick
            test_anuc_strictly_nonuniform;
          Alcotest.test_case "runs conform to the Sec-2.6 model" `Quick
            test_anuc_run_conforms_to_model;
        ] );
      ( "stack",
        [
          Alcotest.test_case "benign (Thm 6.28)" `Slow test_stack_benign;
          Alcotest.test_case "adversarial" `Slow test_stack_adversarial;
        ] );
      ( "transformations",
        [
          Alcotest.test_case "T_sigma_plus emulates Sigma-nu+ (Thm 6.7)"
            `Slow test_t_sigma_plus_emulation;
          Alcotest.test_case "T_extract from uniform gives Sigma (Thm 5.8)"
            `Slow test_t_extract_uniform_gives_sigma;
          Alcotest.test_case
            "T_extract from nonuniform gives Sigma-nu (Thm 5.4)" `Slow
            test_t_extract_nonuniform_gives_sigma_nu;
        ] );
      ( "contamination",
        [
          Alcotest.test_case "naive MR violates NU agreement (Sec 6.3)"
            `Quick test_contamination_naive_mr;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "unsafe skeleton falls to Sec-6.3 script"
            `Quick test_ablation_unsafe_falls;
          Alcotest.test_case "protected variants resist" `Quick
            test_ablation_protected_variants_resist;
          Alcotest.test_case "sweep shape" `Slow test_ablation_sweep_shape;
        ] );
      ( "separation",
        [
          Alcotest.test_case "from-scratch Sigma below n/2 (Thm 7.1 IF)"
            `Quick test_sigma_scratch_is_sigma_when_majority;
          Alcotest.test_case "from-scratch emulation is live" `Quick
            test_sigma_scratch_liveness;
          Alcotest.test_case "attack succeeds at half (Thm 7.1 ONLY IF)"
            `Quick test_attack_succeeds_at_half;
          Alcotest.test_case "attack refuses below half" `Quick
            test_attack_refuses_below_half;
          Alcotest.test_case "attack on T_sigma_plus stays nu-legal" `Quick
            test_attack_on_t_sigma_plus_is_nu_legal;
        ] );
    ]
