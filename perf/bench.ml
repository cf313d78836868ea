(* The benchmark proper: four workloads, each a fixed number of calls
   into a public entry point; an untraced pass that yields the
   end-to-end metrics, and a traced pass that pairs every untraced
   call with a traced twin and yields the per-layer metrics. *)

type workload = Serve_write | Serve_mixed | Mc_depth11 | Fuzz_hunt

let workloads = [ Serve_write; Serve_mixed; Mc_depth11; Fuzz_hunt ]

let name = function
  | Serve_write -> "serve-write"
  | Serve_mixed -> "serve-mixed"
  | Mc_depth11 -> "mc-depth11"
  | Fuzz_hunt -> "fuzz-hunt"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* Sizes. One served run of [slots] is one call; [--smoke] shrinks
   every call and makes [smoke_calls] of them, for tests. *)
let serve_spec ~smoke = function
  | Serve_mixed ->
    if smoke then { Serve.substrate = Executor; slots = 30; reads = 100_000 }
    else { Serve.substrate = Executor; slots = 150; reads = 1_000_000 }
  | _ -> if smoke then { Serve.substrate = Simulator; slots = 20; reads = 0 }
    else { Serve.substrate = Simulator; slots = 200; reads = 0 }

let mc_depth ~smoke = if smoke then 7 else 11
let smoke_calls = function Fuzz_hunt -> 3 | _ -> 1

(* Wall seconds one untraced call takes on the 2-core Xeon (2.1 GHz)
   the baseline was measured on. A run makes as many calls as fit in
   its time budget there: a fixed count, so that a seed names the same
   inputs on every commit and on every machine — a faster commit does
   not get to measure different calls. A traced pair (the call and its
   traced twin) costs about two and a half untraced calls. *)
let nominal_call_s = function
  | Serve_write -> 5.5
  | Serve_mixed -> 3.4
  | Mc_depth11 -> 10.5
  | Fuzz_hunt -> 0.09

type options = {
  workload : workload;
  seed : int;
  seconds : float;
  smoke : bool;
  trace_dir : string;
  corrupt : bool;
      (** fabricate a wrong output in every call (exit-code selftest) *)
}

(* ------------------------------------------------------------------ *)
(* One call                                                             *)
(* ------------------------------------------------------------------ *)

type call = {
  attempted : int;  (** operations: commands + reads, one verdict, one hunt *)
  problems : string list;  (** why the outputs are wrong; [] when correct *)
  work : int;  (** units behind ops_per_s: ops served, distinct states, runs *)
  wall : float;  (** harness wall time around the entry-point call *)
  setup : float list;  (** input-generation times, seconds *)
  latency_ms : float;
  counts : (string * int) list;  (** what the traced twin must reproduce *)
}

let timed f =
  let t0 = Sim.Clock.now () in
  let r = f () in
  (r, Sim.Clock.elapsed t0)

(* Set-up is generating a call's inputs from the seed. It is repeated
   [setup_reps] times per call on the nanosecond clock, and setup_s is
   the median over every repetition of the pass, so a sub-millisecond
   set-up still reads steadily. *)
let setup_reps = 31

let generate f =
  let rec go k acc =
    let t0 = Probe.now () in
    let r = f () in
    let acc = (float_of_int (Probe.now () - t0) /. 1e9) :: acc in
    if k <= 1 then (r, acc) else go (k - 1) acc
  in
  go setup_reps []

let call_seed opts i = (opts.seed * 1_000) + i

let serve_call opts ~spec i =
  let (cfg, streams), setup =
    generate (fun () ->
        let cfg = Serve.config spec ~seed:(call_seed opts i) in
        (cfg, Serve.streams cfg))
  in
  let o, wall = timed (fun () -> Serve.untraced spec cfg) in
  let o = if opts.corrupt then { o with Load.o_divergent = true } else o in
  {
    attempted = max 1 (o.o_ops + cfg.reads);
    problems = Serve.problems cfg streams o;
    work = o.o_ops + o.o_reads;
    wall;
    setup;
    (* Reads are nearly every op of a read workload, so its latency is
       the median read; otherwise it is the median commit interval,
       ticks converted at the call's own wall time per tick. The
       executor's commit gaps swing with how many slots one round
       completes, too much to measure a median on. *)
    latency_ms =
      (if cfg.reads > 0 then o.o_read_p50_us /. 1e3
       else o.o_p50 *. wall /. float_of_int (max 1 o.o_ticks) *. 1e3);
    counts = Serve.counts o;
  }

let mc_call opts ~depth =
  let inp, setup = generate (fun () -> Verify.inputs ~depth) in
  let r, wall = timed (fun () -> Verify.untraced ~depth inp) in
  let r =
    if opts.corrupt then { r with stats = { r.stats with Mc.truncated = true } } else r
  in
  {
    attempted = 1;
    problems = Verify.problems ~depth ~violated:(r.violation <> None) r.stats;
    work = r.stats.distinct_states;
    wall;
    setup;
    latency_ms = wall *. 1e3;
    counts = Verify.counts r.stats;
  }

let hunt_call opts i =
  let inp, setup = generate Hunt.inputs in
  let r, wall = timed (fun () -> Hunt.untraced ~seed:(Hunt.seed_of ~seed:opts.seed i) inp) in
  let r =
    match (opts.corrupt, r.violation) with
    | true, Some v -> { r with violation = Some { v with v_replay_ok = false } }
    | _ -> r
  in
  {
    attempted = 1;
    problems = Hunt.problems r;
    work = r.runs;
    wall;
    setup;
    latency_ms = wall *. 1e3;
    counts = Hunt.counts r;
  }

let untraced_call opts i =
  match opts.workload with
  | Serve_write | Serve_mixed -> serve_call opts ~spec:(serve_spec ~smoke:opts.smoke opts.workload) i
  | Mc_depth11 -> mc_call opts ~depth:(mc_depth ~smoke:opts.smoke)
  | Fuzz_hunt -> hunt_call opts i

(* ------------------------------------------------------------------ *)
(* Traced twin of one call                                              *)
(* ------------------------------------------------------------------ *)

(* Per-pass totals the per-layer metrics are normalized by. *)
let tally : (string, int) Hashtbl.t = Hashtbl.create 16
let get k = Option.value (Hashtbl.find_opt tally k) ~default:0
let bump k v = Hashtbl.replace tally k (get k + v)
let peak k v = Hashtbl.replace tally k (max (get k) v)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 4

let sample k v =
  Hashtbl.replace samples k (v :: Option.value (Hashtbl.find_opt samples k) ~default:[])

let median_of k = Stats.median (Option.value (Hashtbl.find_opt samples k) ~default:[])

(* Wall time of the traced entry-point calls themselves, ns. *)
let traced_ns = ref 0

let measured f =
  let t0 = Probe.now () in
  let r = f () in
  traced_ns := !traced_ns + (Probe.now () - t0);
  r

(* Returns the twin's counters and its problems. *)
let traced_call opts ~parent i =
  match opts.workload with
  | Serve_write | Serve_mixed ->
    let spec = serve_spec ~smoke:opts.smoke opts.workload in
    let cfg = Serve.config spec ~seed:(call_seed opts i) in
    let t =
      measured (fun () ->
          Probe.with_span ~parent ~name:(Printf.sprintf "served run %d" cfg.seed) ~cat:"call"
            (fun ~id -> Serve.traced ~parent:id spec cfg))
    in
    let o = t.outcome in
    bump "slots" o.o_slots;
    bump "ops" o.o_ops;
    bump "capacity" (o.o_slots * cfg.batch);
    bump "sent" o.o_sent;
    bump "lock_ops" o.o_lock_ops;
    peak "max_open" o.o_max_open;
    peak "mailbox_hwm" t.mailbox_hwm;
    sample "p50" o.o_p50;
    sample "p99" o.o_p99;
    (Serve.counts o, Serve.problems cfg (Serve.streams cfg) o)
  | Mc_depth11 ->
    let depth = mc_depth ~smoke:opts.smoke in
    let r =
      measured (fun () ->
          Probe.with_span ~parent ~name:(Printf.sprintf "depth-%d verdict" depth) ~cat:"call"
            (fun ~id:_ -> Verify.traced ~depth))
    in
    let s = r.stats in
    List.iter
      (fun (k, v) -> bump k v)
      [
        ("transitions", s.transitions);
        ("distinct_states", s.distinct_states);
        ("dedup_hits", s.dedup_hits);
        ("self_loops", s.self_loops);
        ("sleep_skipped", s.sleep_skipped);
      ];
    (Verify.counts s, Verify.problems ~depth ~violated:(r.violation <> None) s)
  | Fuzz_hunt ->
    let t = measured (fun () -> Hunt.traced ~parent ~seed:(Hunt.seed_of ~seed:opts.seed i)) in
    bump "runs" t.report.runs;
    bump "steps" t.report.steps_total;
    bump "shrunk" t.shrunk;
    bump "candidates" t.candidates;
    sample "runs" (float_of_int t.report.runs);
    ( [ ("runs", t.report.runs); ("shrunk_len", t.shrunk); ("candidates", t.candidates) ],
      if t.certified then [] else [ "traced hunt found no certified counterexample" ] )

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_unit : string }

let m m_name m_unit = { m_name; m_unit }

let end_to_end = [ m "setup_s" "s"; m "ops_per_s" "1/s"; m "latency_p50_ms" "ms" ]

let per_layer =
  [
    m "oracle.self_pct" "%";
    m "oracle.queries_per_slot" "count";
    m "anuc.self_pct" "%";
    m "anuc.steps_per_slot" "count";
    m "anuc.lambda_ratio" "ratio";
    m "anuc.decision_round" "rounds";
  ]
  @ List.map (fun k -> m ("anuc.msgs_per_slot." ^ k) "count") (Array.to_list Layers.anuc_kinds)
  @ [
      m "smr.self_pct" "%";
      m "smr.steps_per_slot" "count";
      m "smr.idle_ratio" "ratio";
      m "smr.own_msgs_per_slot" "count";
      m "smr.batch_fill" "ratio";
      m "smr.max_open" "count";
      m "load.self_pct" "%";
      m "load.calls_per_slot" "count";
      m "load.commit_p50_ticks" "ticks";
      m "load.commit_p99_ticks" "ticks";
      m "read.self_pct" "%";
      m "runner.self_pct" "%";
      m "runner.msgs_per_slot" "count";
      m "runner.mailbox_hwm" "count";
      m "executor.self_pct" "%";
      m "executor.msgs_per_slot" "count";
      m "executor.mailbox_hwm" "count";
      m "executor.lock_ops" "count";
      m "mc.self_pct" "%";
      m "mc.transitions" "count";
      m "mc.distinct_states" "count";
      m "mc.new_state_ratio" "ratio";
      m "mc.dedup_hits" "count";
      m "mc.self_loops" "count";
      m "mc.sleep_skipped" "count";
      m "mc.steps_per_transition" "count";
      m "props.self_pct" "%";
      m "props.calls" "count";
      m "mr.self_pct" "%";
      m "mr.steps_per_hunt" "count";
      m "explore.self_pct" "%";
      m "explore.runs_per_hunt_p50" "count";
      m "explore.steps_per_run" "count";
      m "shrink.self_pct" "%";
      m "shrink.candidates_per_hunt" "count";
      m "shrink.ratio" "ratio";
      m "certify.self_pct" "%";
      m "trace.overhead_ratio" "ratio";
      m "trace.wall_s" "s";
    ]

let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Per-layer values from the accumulators. Self time of a wrapped
   layer is its total minus the wrapped layers nested inside it; the
   residual layer (runner, executor, mc, explore) is the traced wall
   minus every wrapped layer. *)
let layer_values opts ~calls ~traced_ns ~untraced_s =
  let open Layers in
  let wall = fi traced_ns in
  let pct ns = 100. *. div (fi ns) wall in
  let slots = fi (get "slots") and callsf = fi calls in
  let per_slot x = div (fi x) slots in
  let common =
    [
      ("trace.wall_s", wall /. 1e9);
      ("trace.overhead_ratio", div (wall /. 1e9) untraced_s -. 1.);
      ("props.self_pct", pct props.ns);
      ("props.calls", div (fi props.calls) callsf);
      ("anuc.self_pct", pct anuc.ns);
      ("anuc.lambda_ratio", div (fi !anuc_lambda) (fi anuc.calls));
      ("anuc.decision_round", div (fi !anuc_rounds) (fi !anuc_decisions));
    ]
  in
  let specific =
    match opts.workload with
    | Serve_write | Serve_mixed ->
      let residual = traced_ns - smr.ns - oracle.ns - observe.ns in
      let engine = if opts.workload = Serve_write then "runner" else "executor" in
      [
        ("oracle.self_pct", pct oracle.ns);
        ("oracle.queries_per_slot", per_slot oracle.calls);
        ("anuc.steps_per_slot", per_slot anuc.calls);
        ("smr.self_pct", pct (smr.ns - anuc.ns));
        ("smr.steps_per_slot", per_slot smr.calls);
        ("smr.idle_ratio", div (fi !smr_idle) (fi smr.calls));
        ("smr.own_msgs_per_slot", per_slot (!smr_sends - anuc_sent ()));
        ("smr.batch_fill", div (fi (get "ops")) (fi (get "capacity")));
        ("smr.max_open", fi (get "max_open"));
        ("load.self_pct", pct (observe.ns - read.ns));
        ("load.calls_per_slot", per_slot observe.calls);
        ("load.commit_p50_ticks", median_of "p50");
        ("load.commit_p99_ticks", median_of "p99");
        ("read.self_pct", pct read.ns);
        (engine ^ ".self_pct", pct residual);
        (engine ^ ".msgs_per_slot", per_slot (get "sent"));
        (engine ^ ".mailbox_hwm", fi (get "mailbox_hwm"));
      ]
      @ Array.to_list
          (Array.mapi
             (fun k kind -> ("anuc.msgs_per_slot." ^ kind, per_slot anuc_sends.(k)))
             anuc_kinds)
      @ if opts.workload = Serve_mixed then [ ("executor.lock_ops", div (fi (get "lock_ops")) callsf) ] else []
    | Mc_depth11 ->
      let transitions = fi (get "transitions") in
      [
        ("mc.self_pct", pct (traced_ns - anuc.ns - props.ns));
        ("mc.transitions", div transitions callsf);
        ("mc.distinct_states", div (fi (get "distinct_states")) callsf);
        ("mc.new_state_ratio", div (fi (get "distinct_states")) transitions);
        ("mc.dedup_hits", div (fi (get "dedup_hits")) callsf);
        ("mc.self_loops", div (fi (get "self_loops")) callsf);
        ("mc.sleep_skipped", div (fi (get "sleep_skipped")) callsf);
        ("mc.steps_per_transition", div (fi anuc.calls) transitions);
      ]
    | Fuzz_hunt ->
      let shrink = !Hunt.shrink_self and certify = !Hunt.certify_self in
      [
        ("mr.self_pct", pct mr.ns);
        ("mr.steps_per_hunt", div (fi mr.calls) callsf);
        ("explore.self_pct", pct (traced_ns - mr.ns - props.ns - shrink - certify));
        ("explore.runs_per_hunt_p50", median_of "runs");
        ("explore.steps_per_run", div (fi (get "steps")) (fi (get "runs")));
        ("shrink.self_pct", pct shrink);
        ("shrink.candidates_per_hunt", div (fi (get "candidates")) callsf);
        ("shrink.ratio", div (fi (get "shrunk")) (fi !Hunt.raw_len));
        ("certify.self_pct", pct certify);
      ]
  in
  let values = common @ specific in
  List.map
    (fun mt -> (mt, Option.value (List.assoc_opt mt.m_name values) ~default:0.))
    per_layer

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (metric * float) list;
  problems : string list;
}

let calls opts ~traced =
  if opts.smoke then smoke_calls opts.workload
  else
    let per_call = nominal_call_s opts.workload *. if traced then 2.5 else 1. in
    max 1 (int_of_float (opts.seconds /. per_call))

(* [f 0], [f 1], ... for the pass's call count. *)
let loop opts ~traced f = List.init (calls opts ~traced) f

let tally_failures calls =
  List.fold_left
    (fun (att, failed, probs) ((c : call), extra) ->
      let probs' = c.problems @ extra in
      (att + c.attempted, (failed + if probs' = [] then 0 else c.attempted), probs @ probs'))
    (0, 0, []) calls

let untraced opts =
  let calls = loop opts ~traced:false (fun i -> (untraced_call opts i, [])) in
  let attempted, failed, problems = tally_failures calls in
  let calls = List.map fst calls in
  let sum f = List.fold_left (fun a (c : call) -> a +. f c) 0. calls in
  let values =
    [
      ("setup_s", Stats.median (List.concat_map (fun (c : call) -> c.setup) calls));
      ("ops_per_s", div (sum (fun c -> fi c.work)) (sum (fun c -> c.wall)));
      ("latency_p50_ms", Stats.median (List.map (fun (c : call) -> c.latency_ms) calls));
    ]
  in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics = List.map (fun mt -> (mt, List.assoc mt.m_name values)) end_to_end;
    problems;
  }

let trace_path opts =
  Filename.concat opts.trace_dir (Printf.sprintf "%s-seed%d.trace.json" (name opts.workload) opts.seed)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let traced opts =
  Layers.reset ();
  Hunt.reset ();
  Hashtbl.reset tally;
  Hashtbl.reset samples;
  Probe.clear_spans ();
  traced_ns := 0;
  let untraced_s = ref 0. in
  let root = Probe.fresh_id () and root_start = Probe.now () in
  let calls =
    loop opts ~traced:true (fun i ->
        let c = untraced_call opts i in
        untraced_s := !untraced_s +. c.wall;
        let counts, problems = traced_call opts ~parent:root i in
        let mismatch =
          if counts = c.counts then []
          else [ Printf.sprintf "call %d: traced counters differ from untraced" i ]
        in
        (c, problems @ mismatch))
  in
  Probe.record ~id:root ~parent:0
    ~name:(Printf.sprintf "%s seed %d" (name opts.workload) opts.seed)
    ~cat:"workload" ~start:root_start ();
  mkdir_p opts.trace_dir;
  Probe.write_chrome (trace_path opts);
  let attempted, failed, problems = tally_failures calls in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      layer_values opts ~calls:(List.length calls) ~traced_ns:!traced_ns ~untraced_s:!untraced_s;
    problems;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_line r =
  let metrics =
    List.map
      (fun (mt, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
          (Probe.json_string mt.m_name) (Printf.sprintf "%.17g" v) (Probe.json_string mt.m_unit))
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed (String.concat ", " metrics)
