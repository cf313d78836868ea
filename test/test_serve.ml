(* Tests for the closed-loop load driver: the same served workload on
   the deterministic simulator and the concurrent executor. *)

(* With a single client homed at the pivot (the stable Omega leader
   from tick 1 in a failure-free run), batch = window = pipeline = 1,
   the leader is the only replica with commands and its re-queue
   discipline retries a lost command before submitting the next, so
   the non-noop subsequence of every log is a prefix of the client's
   stream, in submission order, on any interleaving. (Individual
   slots still race: a non-leader's noop proposal can win a slot —
   the leader adopts quorum-reported values — which costs a retry
   slot but never reorders, loses, or duplicates a command.) Given
   enough slots for the retries, both substrates therefore apply
   exactly the same log prefix: the full stream. *)
let deterministic_cfg =
  {
    Load.default with
    n = 3;
    clients = 1;
    commands_per_client = 12;
    batch = 1;
    pipeline = 1;
    window = 1;
    target_slots = 32;
    max_steps = 300_000;
    seed = 3;
  }

let applied_commands (o : Load.outcome) =
  List.filter (fun v -> not (Consensus.Value.equal v Smr.noop)) o.o_log

let test_sim_exec_equivalence () =
  let stream = Load.commands_for deterministic_cfg 0 in
  Alcotest.(check (list int))
    "workload is the client's stream"
    (List.init 12 (fun i -> i + 1))
    stream;
  let s = Load.run_sim deterministic_cfg in
  let e = Load.run_exec ~jobs:2 deterministic_cfg in
  List.iter
    (fun (name, (o : Load.outcome)) ->
      Alcotest.(check bool) (name ^ " reached the target") true o.o_reached;
      Alcotest.(check bool) (name ^ " not divergent") false o.o_divergent;
      Alcotest.(check int) (name ^ " uncompacted") 0 o.o_log_base;
      Alcotest.(check (list int))
        (name ^ " applied exactly the submitted stream, in order")
        stream (applied_commands o))
    [ ("sim", s); ("exec", e) ]

let test_sim_deterministic () =
  (* the simulator side of the driver is a pure function of the
     config — byte-equal observables across invocations *)
  let a = Load.run_sim deterministic_cfg in
  let b = Load.run_sim deterministic_cfg in
  Alcotest.(check (list int)) "same log" a.Load.o_log b.Load.o_log;
  Alcotest.(check int) "same steps" a.Load.o_steps b.Load.o_steps;
  Alcotest.(check int) "same ticks" a.Load.o_ticks b.Load.o_ticks

(* The paper's nonuniform guarantee at the served layer: under
   injected crashes, no two live replicas' retained logs ever
   disagree — checked pairwise at every round boundary
   (continuous_check), on both substrates. *)
let no_divergence_cfg =
  {
    Load.default with
    n = 4;
    clients = 12;
    commands_per_client = 6;
    batch = 2;
    pipeline = 2;
    window = 4;
    retain = 8;
    horizon = 16;
    target_slots = 25;
    max_steps = 400_000;
    seed = 7;
    crashes = [ (3, 400) ];
    continuous_check = true;
  }

let test_no_divergence_under_crashes () =
  List.iter
    (fun seed ->
      let cfg = { no_divergence_cfg with seed } in
      let o = Load.run_sim cfg in
      Alcotest.(check bool)
        (Printf.sprintf "sim seed %d reached the target" seed)
        true o.Load.o_reached;
      Alcotest.(check bool)
        (Printf.sprintf "sim seed %d never divergent" seed)
        false o.Load.o_divergent)
    [ 0; 1; 7 ]

let test_no_divergence_executor () =
  let o = Load.run_exec ~jobs:2 no_divergence_cfg in
  (* liveness depends on the interleaving budget, but safety must
     hold on every interleaving — divergence is the hard failure *)
  Alcotest.(check bool) "exec never divergent" false o.Load.o_divergent;
  Alcotest.(check bool) "exec made progress" true (o.Load.o_slots > 0)

let test_executor_under_faults () =
  (* lossy links on both substrates: a dropped message can stall an
     instance for good (the consensus layer does not retransmit), so
     this is a safety-only check — however far each run gets, live
     logs never diverge *)
  let cfg =
    {
      no_divergence_cfg with
      faults = Sim.Faults.make ~drop:0.02 ~dup:0.02 ~reorder:2 ~seed:5 ();
      crashes = [];
      target_slots = 15;
      max_steps = 150_000;
    }
  in
  let s = Load.run_sim cfg in
  Alcotest.(check bool) "sim under faults never divergent" false
    s.Load.o_divergent;
  let e = Load.run_exec ~jobs:2 cfg in
  Alcotest.(check bool) "exec under faults never divergent" false
    e.Load.o_divergent

let test_instances_bounded () =
  let o = Load.run_sim no_divergence_cfg in
  let bound =
    no_divergence_cfg.Load.horizon + no_divergence_cfg.Load.pipeline
    + no_divergence_cfg.Load.n + 1
  in
  Alcotest.(check bool)
    (Printf.sprintf "open instances bounded (%d <= %d)" o.Load.o_max_open
       bound)
    true
    (o.Load.o_max_open <= bound)

(* A slot's instance is retired once every replica has reported
   deciding it, not left running until it falls [horizon] slots
   behind: without crashes the open-instance count stays near the
   pipeline, and decided instances stop burning steps on rounds
   nobody needs. Keeping them to the horizon cost about 3,100 steps
   and 62-65 open instances per slot on this workload. *)
let retirement_cfg =
  {
    Load.default with
    n = 4;
    clients = 16;
    commands_per_client = 32;
    batch = 4;
    window = 16;
    pipeline = 2;
    retain = 128;
    horizon = 64;
    target_slots = 60;
    max_steps = 400_000;
  }

let test_retire_decided_everywhere () =
  List.iter
    (fun seed ->
      let cfg = { retirement_cfg with seed } in
      let o = Load.run_sim cfg in
      let steps_per_slot = o.Load.o_steps / max 1 o.Load.o_slots in
      let open_bound = 2 * (cfg.Load.pipeline + cfg.Load.n) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d reached the target" seed)
        true o.Load.o_reached;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d never divergent" seed)
        false o.Load.o_divergent;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %d steps per slot < 1000" seed
           steps_per_slot)
        true (steps_per_slot < 1_000);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %d open instances <= %d" seed
           o.Load.o_max_open open_bound)
        true
        (o.Load.o_max_open <= open_bound))
    [ 0; 1; 2; 3; 4; 5 ]

(* The serve-write workload's simulator config (perf/serve.ml: n = 4,
   128 clients x 64 commands, batch 4, pipeline 2, window 16, retain
   128, horizon 64, 200 slots), pinned by log MD5, steps, sends and
   commit percentiles on two seeds. A change that only speeds up the
   consensus layer must leave every figure as it is. *)
let serve_write_cfg seed =
  {
    Load.default with
    n = 4;
    clients = 128;
    commands_per_client = 64;
    batch = 4;
    pipeline = 2;
    window = 16;
    retain = 128;
    horizon = 64;
    target_slots = 200;
    max_steps = 4_000_000;
    seed;
  }

let log_md5 (o : Load.outcome) =
  Digest.to_hex
    (Digest.string (String.concat "," (List.map string_of_int o.Load.o_log)))

let test_serve_write_pins () =
  List.iter
    (fun (seed, md5, steps, sent, p50, p99) ->
      let o = Load.run_sim (serve_write_cfg seed) in
      let what field = Printf.sprintf "seed %d: %s" seed field in
      Alcotest.(check bool) (what "reached the target") true o.Load.o_reached;
      Alcotest.(check bool) (what "not divergent") false o.Load.o_divergent;
      Alcotest.(check string) (what "log MD5") md5 (log_md5 o);
      Alcotest.(check int) (what "steps") steps o.Load.o_steps;
      Alcotest.(check int) (what "sends") sent o.Load.o_sent;
      Alcotest.(check (float 0.)) (what "commit p50") p50 o.Load.o_p50;
      Alcotest.(check (float 0.)) (what "commit p99") p99 o.Load.o_p99)
    [
      (1001, "b344b9e42d8df5128be3efb041585cfc", 88_420, 83_100, 320., 1_576.);
      (1002, "9d29fc15f43a151713921b5d33a8478e", 86_644, 81_369, 308., 1_720.);
    ]

(* [Load.percentile] against the method it replaced: expand every
   (value, weight) pair into [weight] copies, sort, and index the rank
   [ceil (q * m) - 1], clamped. Values come from a small set, so ties
   are common. *)
let expanded_percentile pairs q =
  let a =
    Array.of_list (List.concat_map (fun (v, w) -> List.init w (fun _ -> v)) pairs)
  in
  Array.sort compare a;
  let m = Array.length a in
  if m = 0 then 0.
  else
    let rank = int_of_float (ceil (q *. float_of_int m)) - 1 in
    a.(max 0 (min (m - 1) rank))

let quantiles = [ 0.; 0.5; 0.99; 1. ]

let test_percentile_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"percentile = sorted expansion" ~count:1000
       QCheck.(
         pair
           (small_list
              (pair (map (fun k -> float_of_int k /. 4.) (int_bound 6)) (int_bound 5)))
           (oneof [ oneofl quantiles; float_bound_inclusive 1. ]))
       (fun (pairs, q) -> Load.percentile pairs q = expanded_percentile pairs q))

let test_percentile_cases () =
  let check name pairs expected =
    List.iter2
      (fun q e ->
        Alcotest.(check (float 0.)) (Printf.sprintf "%s, q = %g" name q) e
          (Load.percentile pairs q);
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s, q = %g, expansion" name q)
          e (expanded_percentile pairs q))
      quantiles expected
  in
  check "empty" [] [ 0.; 0.; 0.; 0. ];
  check "one chunk" [ (2.5, 7) ] [ 2.5; 2.5; 2.5; 2.5 ];
  (* expansion [1; 1; 1; 2; 3] *)
  check "ties" [ (3., 1); (1., 2); (2., 1); (1., 1) ] [ 1.; 1.; 3.; 3. ];
  (* 100 gaps of weight 1: p99 is the 99th smallest *)
  check "unit weights"
    (List.init 100 (fun i -> (float_of_int (100 - i), 1)))
    [ 1.; 50.; 99.; 100. ]

let () =
  Alcotest.run "serve"
    [
      ( "load-driver",
        [
          Alcotest.test_case "sim/exec equivalence" `Quick
            test_sim_exec_equivalence;
          Alcotest.test_case "sim determinism" `Quick test_sim_deterministic;
          Alcotest.test_case "no divergence under crashes" `Quick
            test_no_divergence_under_crashes;
          Alcotest.test_case "executor no divergence" `Quick
            test_no_divergence_executor;
          Alcotest.test_case "executor under faults" `Slow
            test_executor_under_faults;
          Alcotest.test_case "bounded instances under load" `Quick
            test_instances_bounded;
          Alcotest.test_case "instances retire once decided everywhere"
            `Quick test_retire_decided_everywhere;
          Alcotest.test_case "serve-write simulator pins" `Quick
            test_serve_write_pins;
          test_percentile_qcheck;
          Alcotest.test_case "percentile cases" `Quick test_percentile_cases;
        ] );
    ]
