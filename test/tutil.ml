(* Shared helpers for the test suites: run a consensus automaton
   under a given oracle family over randomized patterns and seeds,
   evaluate the problem's properties, the one shared definition of a
   randomly generated environment/failure pattern for qcheck
   properties, and the model checker's pinned order-independent
   observables. *)
open Procset

(* Which (Omega, quorum) oracle pair drives a run. *)
type oracle_family = {
  family_name : string;
  make : seed:int -> Sim.Failure_pattern.t -> Fd.Oracle.t;
}

let benign_nu_plus =
  {
    family_name = "benign (omega-random, sigma-nu+-arbitrary)";
    make =
      (fun ~seed pattern ->
        Fd.Oracle.pair
          (Fd.Oracle.omega ~seed pattern)
          (Fd.Oracle.sigma_nu_plus ~seed pattern));
  }

let adversarial_nu_plus =
  {
    family_name = "adversarial (omega-faulty-first, sigma-nu+-split)";
    make =
      (fun ~seed pattern ->
        Fd.Oracle.pair
          (Fd.Oracle.omega ~seed ~prestab:Fd.Oracle.Omega_faulty_first pattern)
          (Fd.Oracle.sigma_nu_plus ~seed ~faulty_mode:Fd.Oracle.Faulty_split
             pattern));
  }

let benign_sigma =
  {
    family_name = "benign (omega-random, sigma-pivot)";
    make =
      (fun ~seed pattern ->
        Fd.Oracle.pair
          (Fd.Oracle.omega ~seed pattern)
          (Fd.Oracle.sigma ~seed pattern));
  }

let benign_nu =
  {
    family_name = "benign (omega-random, sigma-nu-arbitrary)";
    make =
      (fun ~seed pattern ->
        Fd.Oracle.pair
          (Fd.Oracle.omega ~seed pattern)
          (Fd.Oracle.sigma_nu ~seed pattern));
  }

let adversarial_nu =
  {
    family_name = "adversarial (omega-faulty-first, sigma-nu-split)";
    make =
      (fun ~seed pattern ->
        Fd.Oracle.pair
          (Fd.Oracle.omega ~seed ~prestab:Fd.Oracle.Omega_faulty_first pattern)
          (Fd.Oracle.sigma_nu ~seed ~faulty_mode:Fd.Oracle.Faulty_split
             pattern));
  }

let eventually_strong =
  {
    family_name = "<>S";
    make = (fun ~seed pattern -> Fd.Oracle.eventually_strong ~seed pattern);
  }

type sweep_result = { runs : int; steps_total : int }

(* One seeded run of [algo] under [family]'s oracle, proposals
   alternating with the seed. *)
let run_once algo ~family ~pattern ~seed ~max_steps =
  Consensus.Spec.decide algo ~seed ~pattern
    ~fd:(family.make ~seed pattern).Fd.Oracle.query
    ~proposals:(fun p -> (p + seed) mod 2)
    ~max_steps ()

(* Sweep a consensus algorithm over patterns of E_t for every t in
   [t_range] and all [seeds]; fails the alcotest on any violation of
   agreement or validity, and on missed termination. *)
let sweep (module A : Consensus.Spec.S) ~family ~flavour ~n ~t_range ~seeds
    ?(max_steps = 6000) () =
  let runs = ref 0 and steps = ref 0 in
  List.iter
    (fun t ->
      let env = Sim.Env.make ~n ~max_faulty:t in
      List.iter
        (fun seed ->
          let rng = Random.State.make [| seed; n; t |] in
          let pattern = Sim.Env.random_pattern rng ~crash_window:120 env in
          let r = run_once (module A) ~family ~pattern ~seed ~max_steps in
          incr runs;
          steps := !steps + r.Consensus.Spec.steps;
          (* safety is checked even on runs that timed out *)
          (match
             Consensus.Spec.check_safety flavour r.Consensus.Spec.outcome
           with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s / %s / n=%d t=%d seed=%d (%a): %s" A.name
              family.family_name n t seed Sim.Failure_pattern.pp pattern e);
          if not r.Consensus.Spec.all_decided then
            Alcotest.failf "%s / %s / n=%d t=%d seed=%d (%a): timed out \
                            after %d steps without full decision"
              A.name family.family_name n t seed Sim.Failure_pattern.pp
              pattern r.Consensus.Spec.steps)
        seeds)
    t_range;
  { runs = !runs; steps_total = !steps }

(* A sweep against its pin: run count and total steps, which move if
   the seeds, patterns, proposals, oracle or stop rule of a run do. *)
let check_sweep_pin ~tag (runs, steps_total) r =
  Alcotest.(check (pair int int))
    (tag ^ ": runs, steps_total")
    (runs, steps_total) (r.runs, r.steps_total)

(* -------------------------------------------------------------- *)
(* QCheck generators for environments and failure patterns        *)
(* -------------------------------------------------------------- *)

(* A randomly generated universe: an environment E_t(n) together with
   the crash times of one admissible pattern (distinct pids, at most
   t of them, never everybody). The sim, fd and consensus suites all
   generate their patterns through this one definition, so they agree
   on what "a random admissible pattern" means — and share its
   shrinker: counterexamples lose crashes first, then crash times
   shrink toward 0 (the harshest schedule), which keeps the universe
   in the same environment while it shrinks. *)
type universe = {
  u_n : int;
  u_t : int;  (* the bound of the environment E_t *)
  u_crashes : (Pid.t * int) list;  (* (pid, crash time); pids distinct *)
}

let universe_env u = Sim.Env.make ~n:u.u_n ~max_faulty:u.u_t
let universe_pattern u = Sim.Failure_pattern.make ~n:u.u_n ~crashes:u.u_crashes

let print_universe u =
  Printf.sprintf "{n=%d; t=%d; crashes=[%s]}" u.u_n u.u_t
    (String.concat "; "
       (List.map (fun (p, t) -> Printf.sprintf "p%d@%d" p t) u.u_crashes))

let universe_gen ?(min_n = 2) ?(max_n = 8) ?(majority_correct = false)
    ?(crash_window = 120) () =
  let open QCheck.Gen in
  int_range min_n max_n >>= fun n ->
  let t_max = if majority_correct then (n - 1) / 2 else n - 1 in
  int_range 0 t_max >>= fun t ->
  (* one independent coin and crash time per process, keeping the
     first t heads: every crash set of size <= t is reachable *)
  list_repeat n (pair bool (int_bound crash_window)) >>= fun coins ->
  let picked = ref 0 in
  let crashes =
    List.concat
      (List.mapi
         (fun p (heads, time) ->
           if heads && !picked < t then begin
             incr picked;
             [ (p, time) ]
           end
           else [])
         coins)
  in
  return { u_n = n; u_t = t; u_crashes = crashes }

(* Shrinking order matters for readable counterexamples: first fewer
   crashes / earlier crash times (the harshest schedule in the same
   universe), then fewer processes (dropping the tail pids and any of
   their crashes), then a tighter environment bound. Every shrunk
   value stays admissible: pids < n, |crashes| <= t <= n - 1. *)
let shrink_universe u =
  let open QCheck.Iter in
  let crashes_iter =
    QCheck.Shrink.list
      ~shrink:(fun (p, t) -> QCheck.Shrink.int t >|= fun t' -> (p, t'))
      u.u_crashes
    >|= fun crashes -> { u with u_crashes = crashes }
  in
  let n_iter =
    QCheck.Shrink.int u.u_n
    |> filter (fun n' -> n' >= 2)
    >|= fun n' ->
    let crashes = List.filter (fun (p, _) -> p < n') u.u_crashes in
    { u_n = n'; u_t = min u.u_t (n' - 1); u_crashes = crashes }
  in
  let t_iter =
    QCheck.Shrink.int u.u_t
    |> filter (fun t' -> t' >= List.length u.u_crashes)
    >|= fun t' -> { u with u_t = t' }
  in
  crashes_iter <+> n_iter <+> t_iter

let arb_universe ?min_n ?max_n ?majority_correct ?crash_window () =
  QCheck.make ~print:print_universe ~shrink:shrink_universe
    (universe_gen ?min_n ?max_n ?majority_correct ?crash_window ())

(* -------------------------------------------------------------- *)
(* Replay round-trips                                             *)
(* -------------------------------------------------------------- *)

(* Execute one recorded run of [A] and round-trip it through
   [Runner.replay]: true iff the run decided, the recorded trace is
   applicable, and the replayed states reproduce every final
   decision (vacuously true if the run hit [max_steps] undecided —
   the generators can produce patterns too harsh for the budget). *)
let replay_roundtrips (module A : Consensus.Spec.S) ~family ~seed ~pattern
    ?(max_steps = 6000) () =
  let module R = Sim.Runner.Make (A) in
  let n = Sim.Failure_pattern.n pattern in
  let correct = Sim.Failure_pattern.correct pattern in
  let inputs p = (p + seed) mod 2 in
  let oracle = family.make ~seed pattern in
  let run =
    R.exec ~seed ~pattern ~fd:oracle.Fd.Oracle.query ~inputs ~max_steps
      ~stop:(fun st _ ->
        Pset.for_all (fun p -> A.decision (st p) <> None) correct)
      ()
  in
  (not run.R.stopped_early)
  ||
  match R.replay ~n ~inputs (R.to_replay (Array.to_list run.R.steps)) with
  | Error _ -> false
  | Ok states ->
    List.for_all
      (fun p -> A.decision states.(p) = A.decision run.R.states.(p))
      (List.init n Fun.id)

(* -------------------------------------------------------------- *)
(* QCheck generators for fault specs and schedule prefixes        *)
(* -------------------------------------------------------------- *)

(* A random fault spec over n processes: rates on a coarse grid (so
   counterexamples print as round numbers), a small reorder window,
   and up to two partition windows whose groups 2-color the pid
   space (uncolored pids belong to no group and are cut off from
   everyone while the window is active). *)
let partition_gen ~n =
  let open QCheck.Gen in
  int_bound 80 >>= fun from_t ->
  int_bound 40 >>= fun width ->
  list_repeat n (int_bound 2) >>= fun colors ->
  let group c =
    Pset.of_list
      (List.concat
         (List.mapi (fun p cp -> if cp = c then [ p ] else []) colors))
  in
  let groups =
    List.filter (fun g -> not (Pset.is_empty g)) [ group 0; group 1 ]
  in
  return { Sim.Faults.from_t; until_t = from_t + width; groups }

let faults_gen ~n =
  let open QCheck.Gen in
  int_bound 4 >>= fun drop20 ->
  int_bound 4 >>= fun dup20 ->
  int_bound 3 >>= fun reorder ->
  int_bound 1000 >>= fun seed ->
  list_size (int_bound 2) (partition_gen ~n) >>= fun partitions ->
  return
    (Sim.Faults.make
       ~drop:(float_of_int drop20 /. 20.0)
       ~dup:(float_of_int dup20 /. 20.0)
       ~reorder ~partitions ~seed ())

let print_faults f = Format.asprintf "%a" Sim.Faults.pp f

(* Remove whole fault dimensions first (no partitions, no drops, no
   dups, no reordering), then shrink partition windows: drop a
   window, then narrow one toward its start time. A counterexample
   that survives this is minimal in a useful sense: every remaining
   fault dimension and every remaining window-step is load-bearing. *)
let shrink_faults (f : Sim.Faults.t) =
  let open QCheck.Iter in
  let rebuild ?(drop = f.Sim.Faults.drop) ?(dup = f.Sim.Faults.dup)
      ?(reorder = f.Sim.Faults.reorder)
      ?(partitions = f.Sim.Faults.partitions) () =
    Sim.Faults.make ~drop ~dup ~reorder ~partitions ~seed:f.Sim.Faults.seed ()
  in
  let zero_dims =
    append_l
      [
        (if f.Sim.Faults.partitions <> [] then
           return (rebuild ~partitions:[] ())
         else empty);
        (if f.Sim.Faults.drop > 0.0 then return (rebuild ~drop:0.0 ())
         else empty);
        (if f.Sim.Faults.dup > 0.0 then return (rebuild ~dup:0.0 ())
         else empty);
        (if f.Sim.Faults.reorder > 0 then return (rebuild ~reorder:0 ())
         else empty);
      ]
  in
  let shrink_partition (pt : Sim.Faults.partition) =
    QCheck.Shrink.int (pt.Sim.Faults.until_t - pt.Sim.Faults.from_t)
    >|= fun width ->
    { pt with Sim.Faults.until_t = pt.Sim.Faults.from_t + width }
  in
  let narrowed =
    QCheck.Shrink.list ~shrink:shrink_partition f.Sim.Faults.partitions
    >|= fun partitions -> rebuild ~partitions ()
  in
  zero_dims <+> narrowed

let arb_faults ~n =
  QCheck.make ~print:print_faults ~shrink:shrink_faults (faults_gen ~n)

(* A schedule prefix: which process is scheduled at each slot.
   Shrinks by dropping slots, then by lowering pids — so a failing
   scheduling property reports the shortest, lowest-numbered
   activation sequence that still fails. *)
let schedule_gen ~n ~len =
  QCheck.Gen.(list_size (int_bound len) (int_bound (n - 1)))

let print_schedule s =
  String.concat " " (List.map (Printf.sprintf "p%d") s)

let shrink_schedule s = QCheck.Shrink.list ~shrink:QCheck.Shrink.int s

let arb_schedule ~n ~len =
  QCheck.make ~print:print_schedule ~shrink:shrink_schedule
    (schedule_gen ~n ~len)

(* -------------------------------------------------------------- *)
(* Meta-test support: run a qcheck cell and hand back the shrunk   *)
(* counterexample, so a test can assert on the *reporting* itself  *)
(* -------------------------------------------------------------- *)

(* Runs [prop] over [arb] with a fixed RNG and returns the fully
   shrunk counterexample, or [None] if the property never failed.
   This is how the shrinkers above are themselves tested: seed a
   property that must fail, then pin what the report shows. *)
let shrunk_counterexample ?(count = 200) ~seed arb prop =
  let cell = QCheck.Test.make_cell ~count arb prop in
  let res =
    QCheck.Test.check_cell ~rand:(Random.State.make [| seed |]) cell
  in
  match QCheck.TestResult.get_state res with
  | QCheck.TestResult.Failed { instances = cx :: _ } ->
    Some cx.QCheck.TestResult.instance
  | _ -> None

(* -------------------------------------------------------------- *)
(* QCheck generators for quorum families and weight vectors       *)
(* -------------------------------------------------------------- *)

(* A generated quorum family, kept as a data spec so counterexamples
   print and shrink structurally; [spec_family] instantiates the
   first-class module. Every generated spec fits its universe: the
   instantiated family always passes [Quorum_family.validate]'s shape
   check at the [n] it was generated for. *)
type family_spec =
  | Sp_majority
  | Sp_super of int  (* f, with the threshold fitting the universe *)
  | Sp_weighted of int list  (* length n, nonnegative, total > 0 *)
  | Sp_grid of int * int  (* rows x cols = n exactly *)

let spec_family = function
  | Sp_majority -> Quorum_family.majority
  | Sp_super f -> Quorum_family.supermajority ~f
  | Sp_weighted ws -> Quorum_family.weighted ~weights:ws
  | Sp_grid (r, c) -> Quorum_family.grid ~rows:r ~cols:c ()

let print_family_spec s = Quorum_family.name (spec_family s)

(* Weight vectors for the weighted-vote family: [n] entries in
   [0, 4] with the first forced positive, so the total is always
   positive and the spec always fits. Shrinks pointwise toward 1 —
   the all-ones vector is the degenerate case that must behave
   exactly like majority, so a surviving counterexample shows which
   weight asymmetry is load-bearing. *)
let weights_gen ~n =
  QCheck.Gen.(
    map2
      (fun w0 rest -> (1 + w0) :: rest)
      (int_bound 3)
      (list_repeat (n - 1) (int_bound 4)))

let shrink_weights ws =
  let open QCheck.Iter in
  QCheck.Shrink.list_elems
    (fun w -> if w > 1 then return 1 else empty)
    ws
  |> filter (fun ws' -> List.exists (fun w -> w > 0) ws')

let arb_weights ~n =
  QCheck.make
    ~print:(fun ws -> String.concat "," (List.map string_of_int ws))
    ~shrink:shrink_weights (weights_gen ~n)

(* All family specs that fit a universe of size [n]: majority,
   every supermajority whose threshold fits, every exact grid
   tiling, and random weight vectors. *)
let family_spec_gen ~n =
  let open QCheck.Gen in
  let supers = List.init (max 1 (n - 1)) (fun f -> Sp_super f) in
  let grids =
    List.concat
      (List.init n (fun i ->
           let r = i + 1 in
           if n mod r = 0 then [ Sp_grid (r, n / r) ] else []))
  in
  frequency
    [
      (1, return Sp_majority);
      (2, oneofl supers);
      (2, oneofl grids);
      (3, weights_gen ~n >|= fun ws -> Sp_weighted ws);
    ]

(* Shrink toward majority — the reference family every law treats as
   the degenerate case — then shrink the parameters themselves
   (smaller f, flatter weights). *)
let shrink_family_spec s =
  let open QCheck.Iter in
  match s with
  | Sp_majority -> empty
  | Sp_super f ->
    return Sp_majority <+> (QCheck.Shrink.int f >|= fun f' -> Sp_super f')
  | Sp_weighted ws ->
    return Sp_majority <+> (shrink_weights ws >|= fun ws' -> Sp_weighted ws')
  | Sp_grid _ -> return Sp_majority

let arb_family_spec ~n =
  QCheck.make ~print:print_family_spec ~shrink:shrink_family_spec
    (family_spec_gen ~n)

(* A model-checking run against its pin: (verdict clean, distinct
   states, decided leaves) — the observables no exploration order or
   job count may change — and not truncated. *)
let check_mc_pin ~tag (verdict_clean, states, decided) ~violated
    (s : Mc.stats) =
  Alcotest.(check (triple bool int int))
    (tag "verdict, distinct states, decided leaves")
    (verdict_clean, states, decided)
    (not violated, s.Mc.distinct_states, s.Mc.decided_leaves);
  Alcotest.(check bool) (tag "not truncated") false s.Mc.truncated

(* The self-loop rule at one configuration, for every move in [moves]:
   [self_loop] answers what applying the move and comparing answers,
   and [equal] answers what polymorphic [=] does on that pair. *)
let self_loop_rule_holds ~self_loop ~equal ~apply cfg moves =
  List.for_all
    (fun mv ->
      let child = apply cfg mv in
      let same = equal child cfg in
      self_loop cfg mv = same && same = (child = cfg))
    moves
