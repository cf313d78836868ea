(* The two served-log workloads: closed-loop writes through
   [Load.run_sim], and writes plus [Read_log] reads through
   [Load.run_exec ~jobs:1] on the ring transport with the first
   Omega leader crashing. *)

open Procset

type substrate = Simulator | Executor

type spec = { substrate : substrate; slots : int; reads : int }

let config spec ~seed =
  let base =
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
      target_slots = spec.slots;
      (* a stalled run fails in bounded time instead of spinning *)
      max_steps = 20_000 * spec.slots;
      seed;
    }
  in
  match spec.substrate with
  | Simulator -> base
  | Executor ->
    {
      base with
      transport = Sim.Executor.Ring;
      reads = spec.reads;
      read_mode = Load.Read_log;
      (* replica 0 is the first Omega leader; crashing it at 50,000
         ticks stays live on every seed tried, later crashes stall *)
      crashes = [ (0, 50_000) ];
    }

(* The generated command streams, one per replica: what the clients
   submit, and the universe every applied command must come from. *)
let streams (cfg : Load.config) = Array.init cfg.n (Load.commands_for cfg)

let untraced spec (cfg : Load.config) =
  match spec.substrate with
  | Simulator -> Load.run_sim cfg
  | Executor -> Load.run_exec ~jobs:1 cfg

(* Every way a served run can be wrong, as messages; [] means correct. *)
let problems (cfg : Load.config) streams (o : Load.outcome) =
  let submitted = Hashtbl.create 8192 in
  Array.iter (List.iter (fun c -> Hashtbl.replace submitted c ())) streams;
  let applied = Hashtbl.create 1024 in
  let twice = ref false and foreign = ref false in
  List.iter
    (fun c ->
      if c <> Smr.noop then begin
        if Hashtbl.mem applied c then twice := true;
        Hashtbl.replace applied c ();
        if not (Hashtbl.mem submitted c) then foreign := true
      end)
    o.o_log;
  List.filter_map
    (fun (bad, msg) -> if bad then Some msg else None)
    [
      (not o.o_reached, "missed the slot target");
      (o.o_divergent, "live replicas diverged");
      (!twice, "a command was applied twice");
      (!foreign, "applied a command no client submitted");
      (o.o_ops > Hashtbl.length submitted, "more commands applied than submitted");
      (o.o_reads <> cfg.reads, "served a different number of reads");
      (o.o_stale_max > o.o_stale_bound, "a read exceeded the staleness bound");
    ]

(* The counters a traced run must reproduce exactly. *)
let counts (o : Load.outcome) =
  [
    ("steps", o.o_steps);
    ("sent", o.o_sent);
    ("slots", o.o_slots);
    ("ops", o.o_ops);
    ("p50_ticks", int_of_float o.o_p50);
    ("p99_ticks", int_of_float o.o_p99);
    ("read_digest", o.o_read_digest);
  ]

(* ------------------------------------------------------------------ *)
(* Traced pass                                                          *)
(* ------------------------------------------------------------------ *)

(* [Load]'s driver, rebuilt from the same public modules with every
   layer wrapped: [Smr.Make_tuned] over the timed [A_nuc], itself
   timed, under the runner or executor, with a timed oracle and a
   timed observer. It follows [Load] line for line on the paths the
   workloads use ([Read_log] reads, no continuous check), which is
   what lets the traced run reproduce the untraced counters. *)

type traced = { outcome : Load.outcome; mailbox_hwm : int }

module Drive (S : Smr.S) = struct
  module R = Sim.Runner.Make (S)
  module E = Sim.Executor.Make (S)

  let rec drop k l =
    if k = 0 then Some l else match l with [] -> None | _ :: tl -> drop (k - 1) tl

  let rec prefix_eq a b =
    match (a, b) with
    | [], _ | _, [] -> true
    | x :: a, y :: b -> x = y && prefix_eq a b

  let consistent sa sb =
    let base_a = S.log_base sa and base_b = S.log_base sb in
    let digest_ok = base_a <> base_b || S.snapshot_digest sa = S.snapshot_digest sb in
    let overlap_ok =
      if base_a <= base_b then
        match drop (base_b - base_a) (S.batches sa) with
        | None -> true
        | Some tail -> prefix_eq tail (S.batches sb)
      else
        match drop (base_a - base_b) (S.batches sb) with
        | None -> true
        | Some tail -> prefix_eq tail (S.batches sa)
    in
    digest_ok && overlap_ok

  type tracker = {
    comp : int array;
    mutable recorded : int;
    mutable max_open : int;
    mutable last_t : int;
    read_lat : float array;
    mutable reads_done : int;
    mutable read_wall : float;
    mutable read_digest : int;
    (* slot spans: wall time and layer counters at the last completion *)
    mutable slot_start : int;
    mutable slot_steps : int;
    mutable slot_sends : int;
    mutable slot_anuc : int;
  }

  let serve_reads (cfg : Load.config) tr sref =
    if cfg.reads > 0 then begin
      let dec = S.slots_decided sref in
      let due = cfg.reads * min dec cfg.target_slots / cfg.target_slots in
      let chunk = min due cfg.reads - tr.reads_done in
      if chunk > 0 then begin
        let p0 = Probe.now () in
        let t0 = Sim.Clock.now () in
        for _ = 1 to chunk do
          tr.read_digest <- tr.read_digest lxor S.log_digest sref lxor S.slots_decided sref
        done;
        let el = Sim.Clock.elapsed t0 in
        Probe.add Layers.read p0;
        tr.read_wall <- tr.read_wall +. el;
        let per = el /. float_of_int chunk in
        for i = tr.reads_done to tr.reads_done + chunk - 1 do
          tr.read_lat.(i) <- per
        done;
        tr.reads_done <- tr.reads_done + chunk
      end
    end

  let slot_spans ~parent tr ~from ~upto =
    for slot = from + 1 to upto do
      let id = Probe.fresh_id () in
      Probe.record ~id ~parent ~name:(Printf.sprintf "slot %d" slot) ~cat:"slot"
        ~start:tr.slot_start
        ~args:
          [
            ("request", slot);
            ("steps", Layers.smr.calls - tr.slot_steps);
            ("messages", !Layers.smr_sends - tr.slot_sends);
            ("anuc_steps", Layers.anuc.calls - tr.slot_anuc);
          ]
        ();
      tr.slot_start <- Probe.now ();
      tr.slot_steps <- Layers.smr.calls;
      tr.slot_sends <- !Layers.smr_sends;
      tr.slot_anuc <- Layers.anuc.calls
    done

  let observe ~parent (cfg : Load.config) pattern tr st t =
    let p0 = Probe.now () in
    tr.last_t <- max tr.last_t t;
    let correct = Sim.Failure_pattern.correct pattern in
    let live =
      List.filter (fun p -> not (Sim.Failure_pattern.crashed pattern p t)) (Pid.all ~n:cfg.n)
    in
    List.iter (fun p -> tr.max_open <- max tr.max_open (S.open_instances (st p))) live;
    let sref = st (Pset.min_elt correct) in
    let d = min (S.slots_decided sref) cfg.target_slots in
    let from = tr.recorded in
    while tr.recorded < d do
      tr.recorded <- tr.recorded + 1;
      tr.comp.(tr.recorded) <- t
    done;
    serve_reads cfg tr sref;
    let stop = Pset.for_all (fun p -> S.slots_decided (st p) >= cfg.target_slots) correct in
    Probe.add Layers.observe p0;
    if tr.recorded > from then slot_spans ~parent tr ~from ~upto:tr.recorded;
    stop

  let percentile gaps q =
    let m = Array.length gaps in
    if m = 0 then 0.
    else
      let rank = int_of_float (ceil (q *. float_of_int m)) - 1 in
      float_of_int gaps.(max 0 (min (m - 1) rank))

  let finish (cfg : Load.config) ~pattern ~tr ~states ~steps ~ticks ~wall ~sent
      ~lock_ops ~cas_retries ~sync_ops =
    let correct = Sim.Failure_pattern.correct pattern in
    let live = Pset.elements correct in
    let divergent = ref false in
    let rec pairs = function
      | [] -> ()
      | p :: rest ->
        List.iter (fun q -> if not (consistent states.(p) states.(q)) then divergent := true) rest;
        pairs rest
    in
    pairs live;
    let sref = states.(Pset.min_elt correct) in
    let gaps = Array.init tr.recorded (fun i -> tr.comp.(i + 1) - tr.comp.(i)) in
    Array.sort compare gaps;
    let rl = Array.sub tr.read_lat 0 tr.reads_done in
    Array.sort compare rl;
    let read_pct q =
      let m = Array.length rl in
      if m = 0 then 0.
      else
        let rank = int_of_float (ceil (q *. float_of_int m)) - 1 in
        rl.(max 0 (min (m - 1) rank)) *. 1e6
    in
    {
      Load.o_reached =
        Pset.for_all (fun p -> S.slots_decided states.(p) >= cfg.target_slots) correct;
      o_slots = S.slots_decided sref;
      o_ops = S.commands_applied sref;
      o_steps = steps;
      o_ticks = max ticks tr.last_t;
      o_wall = wall;
      o_p50 = percentile gaps 0.50;
      o_p99 = percentile gaps 0.99;
      o_divergent = !divergent;
      o_max_open = tr.max_open;
      o_log = S.log sref;
      o_log_base = S.log_base sref;
      o_sent = sent;
      o_reads = tr.reads_done;
      o_reads_per_sec =
        (if tr.read_wall > 0. then float_of_int tr.reads_done /. tr.read_wall else 0.);
      o_read_p50_us = read_pct 0.50;
      o_read_p99_us = read_pct 0.99;
      o_read_digest = tr.read_digest;
      o_stale_max = -1;
      o_stale_bound = 0;
      o_snapshots = 0;
      o_lock_ops = lock_ops;
      o_cas_retries = cas_retries;
      o_sync_ops = sync_ops;
    }

  let run ~parent spec (cfg : Load.config) =
    let pattern = Sim.Failure_pattern.make ~n:cfg.n ~crashes:cfg.crashes in
    let oracle =
      Fd.Oracle.pair
        (Fd.Oracle.omega ~seed:cfg.seed pattern)
        (Fd.Oracle.sigma_nu_plus ~seed:cfg.seed pattern)
    in
    let fd = Layers.timed_oracle oracle.Fd.Oracle.query in
    let tr =
      {
        comp = Array.make (cfg.target_slots + 1) 0;
        recorded = 0;
        max_open = 0;
        last_t = 0;
        read_lat = Array.make cfg.reads 0.;
        reads_done = 0;
        read_wall = 0.;
        read_digest = 0;
        slot_start = Probe.now ();
        slot_steps = Layers.smr.calls;
        slot_sends = !Layers.smr_sends;
        slot_anuc = Layers.anuc.calls;
      }
    in
    let stop = observe ~parent cfg pattern tr in
    let inputs = Load.commands_for cfg in
    let outcome, mailbox_hwm =
      match spec.substrate with
      | Simulator ->
        let run =
          R.exec ~seed:cfg.seed ~faults:cfg.faults ~record:false ~stop ~pattern ~fd ~inputs
            ~max_steps:cfg.max_steps ()
        in
        ( finish cfg ~pattern ~tr ~states:run.R.states ~steps:run.R.step_count
            ~ticks:run.R.step_count ~wall:run.R.metrics.Sim.Runner.wall_seconds
            ~sent:run.R.messages_sent ~lock_ops:0 ~cas_retries:0 ~sync_ops:0,
          run.R.metrics.Sim.Runner.mailbox_hwm )
      | Executor ->
        let out =
          E.exec ~jobs:1 ~transport:cfg.transport ~capacity:cfg.ring_capacity
            ~faults:cfg.faults ~stop ~pattern ~fd ~inputs ~max_steps:cfg.max_steps ()
        in
        let stats = out.E.stats in
        ( finish cfg ~pattern ~tr ~states:out.E.states ~steps:out.E.step_count
            ~ticks:out.E.final_time ~wall:out.E.wall_seconds ~sent:stats.Sim.Transport.sent
            ~lock_ops:stats.Sim.Transport.lock_ops
            ~cas_retries:stats.Sim.Transport.cas_retries ~sync_ops:out.E.sync_ops,
          stats.Sim.Transport.mailbox_hwm )
    in
    { outcome; mailbox_hwm }
end

let traced ~parent spec (cfg : Load.config) =
  let module S =
    Smr.Make_tuned
      (struct
        let batch = cfg.batch
        let pipeline = cfg.pipeline
        let window = cfg.window
        let retain = cfg.retain
        let horizon = cfg.horizon
      end)
      (Layers.Anuc)
  in
  let module T = Drive (Layers.Smr_timed (S)) in
  T.run ~parent spec cfg
