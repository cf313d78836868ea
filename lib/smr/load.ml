open Procset

type read_mode = Read_log | Read_snapshot

let read_mode_name = function Read_log -> "log" | Read_snapshot -> "snapshot"

type config = {
  n : int;
  clients : int;
  commands_per_client : int;
  batch : int;
  pipeline : int;
  window : int;
  retain : int;
  horizon : int;
  target_slots : int;
  max_steps : int;
  seed : int;
  faults : Sim.Faults.t;
  crashes : (Pid.t * int) list;
  continuous_check : bool;
  transport : Sim.Executor.transport;
  shards : int;
  ring_capacity : int;
  reads : int;
  read_mode : read_mode;
  publish_every : int;
}

let default =
  {
    n = 3;
    clients = 100;
    commands_per_client = 4;
    batch = 1;
    pipeline = 1;
    window = 64;
    retain = 128;
    horizon = 64;
    target_slots = 50;
    max_steps = 1_000_000;
    seed = 0;
    faults = Sim.Faults.none;
    crashes = [];
    continuous_check = false;
    transport = Sim.Executor.Ring;
    shards = 0;
    ring_capacity = 1024;
    reads = 0;
    read_mode = Read_log;
    publish_every = 8;
  }

type outcome = {
  o_reached : bool;
  o_slots : int;
  o_ops : int;
  o_steps : int;
  o_ticks : int;
  o_wall : float;
  o_p50 : float;
  o_p99 : float;
  o_divergent : bool;
  o_max_open : int;
  o_log : Consensus.Value.t list;
  o_log_base : int;
  o_sent : int;
  o_reads : int;
  o_reads_per_sec : float;
  o_read_p50_us : float;
  o_read_p99_us : float;
  o_read_digest : int;
  o_stale_max : int;
  o_stale_bound : int;
  o_snapshots : int;
  o_lock_ops : int;
  o_cas_retries : int;
  o_sync_ops : int;
}

let tuning cfg : (module Smr.TUNING) =
  (module struct
    let batch = cfg.batch
    let pipeline = cfg.pipeline
    let window = cfg.window
    let retain = cfg.retain
    let horizon = cfg.horizon
  end)

(* Upper bounds that keep a run finite: the command streams are built
   up front, the completion array holds one entry per target slot, and
   [reads * target_slots] (the read pacing) stays far from overflow. *)
let max_target_slots = 1_000_000
let max_commands = 10_000_000
let max_reads = 1_000_000_000

let check cfg =
  let fail fmt = Printf.ksprintf (fun msg -> Error ("Load: " ^ msg)) fmt in
  if cfg.n < 2 then fail "n must be >= 2"
  else if cfg.n > Pset.max_size then fail "n must be <= %d" Pset.max_size
  else if cfg.target_slots < 1 then fail "target_slots must be >= 1"
  else if cfg.target_slots > max_target_slots then
    fail "target_slots must be <= %d" max_target_slots
  else if cfg.clients < 1 then fail "clients must be >= 1"
  else if cfg.clients > max_commands then
    fail "clients must be <= %d" max_commands
  else if cfg.commands_per_client < 1 then
    fail "commands_per_client must be >= 1"
  else if cfg.commands_per_client > max_commands then
    fail "commands_per_client must be <= %d" max_commands
  (* both factors are bounded, so the product cannot overflow *)
  else if cfg.clients * cfg.commands_per_client > max_commands then
    fail "%d clients x %d commands exceeds %d commands" cfg.clients
      cfg.commands_per_client max_commands
  else if cfg.max_steps < 1 then fail "max_steps must be >= 1"
  else if cfg.reads < 0 then fail "reads must be >= 0"
  else if cfg.reads > max_reads then fail "reads must be <= %d" max_reads
  else if cfg.publish_every < 1 then fail "publish_every must be >= 1"
  else if cfg.shards < 0 then fail "shards must be >= 0"
  else if cfg.ring_capacity < 1 then fail "ring_capacity must be >= 1"
  else
    match Smr.check_tuning (tuning cfg) with
    | Error _ as e -> e
    (* command values are 1 + k*clients + c, so the largest is exactly
       clients * commands_per_client *)
    | Ok ()
      when cfg.batch > 1
           && cfg.clients * cfg.commands_per_client > Smr.Batch.max_command ->
      fail
        "%d clients x %d commands exceeds Batch.max_command (%d); shrink \
         the workload or use batch = 1"
        cfg.clients cfg.commands_per_client Smr.Batch.max_command
    | Ok () -> Ok ()

let validate cfg =
  match check cfg with Ok () -> () | Error msg -> invalid_arg msg

(* Request rounds outer, clients (ascending) inner: the stream
   interleaves one request per client per round, like a closed-loop
   pool where every client keeps one request outstanding. *)
let commands_for cfg p =
  validate cfg;
  let buf = ref [] in
  for k = cfg.commands_per_client - 1 downto 0 do
    for c = cfg.clients - 1 downto 0 do
      if c mod cfg.n = p then buf := (1 + (k * cfg.clients) + c) :: !buf
    done
  done;
  !buf

let percentile pairs q =
  let m = List.fold_left (fun m (_, w) -> m + w) 0 pairs in
  if m = 0 then 0.
  else
    let rank =
      max 0 (min (m - 1) (int_of_float (ceil (q *. float_of_int m)) - 1))
    in
    (* [seen] values precede the head of the list, and [seen <= rank] *)
    let rec pick seen = function
      | (v, w) :: rest -> if rank < seen + w then v else pick (seen + w) rest
      | [] -> assert false
    in
    pick 0 (List.sort compare pairs)

let make_smr cfg : (module Smr.S) =
  let module T = (val tuning cfg) in
  (module Smr.Make_tuned (T) (Core.Anuc))

module Driver (S : Smr.S) = struct
  module R = Sim.Runner.Make (S)
  module E = Sim.Executor.Make (S)

  let rec drop k l =
    if k = 0 then Some l
    else match l with [] -> None | _ :: tl -> drop (k - 1) tl

  let rec prefix_eq a b =
    match (a, b) with
    | [], _ | _, [] -> true
    | x :: a, y :: b -> x = y && prefix_eq a b

  (* Two replicas are consistent when their retained logs agree on the
     overlap of their windows, aligned by compaction base, and their
     digests agree whenever the bases coincide. Non-overlapping
     windows are vacuously consistent: the slower replica has not yet
     decided any slot the faster one still retains. *)
  let consistent sa sb =
    let base_a = S.log_base sa and base_b = S.log_base sb in
    let digest_ok =
      base_a <> base_b || S.snapshot_digest sa = S.snapshot_digest sb
    in
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
    comp : int array;  (* comp.(i) = tick when the i-th slot completed *)
    mutable recorded : int;
    mutable max_open : int;
    mutable divergent : bool;
    mutable last_t : int;
    (* read-serving state: the coordinator serves reads at round
       boundaries, interleaved with the replicated write workload *)
    store : Snapshot.Store.t;
    (* (per-read estimate in seconds, reads) for every timed chunk *)
    mutable read_chunks : (float * int) list;
    mutable reads_done : int;
    mutable read_wall : float;
    mutable read_digest : int;
    mutable stale_max : int;
    mutable last_pub : int;  (* decided count at the last publish *)
  }

  let check_pairwise tr st live =
    let rec go = function
      | [] -> ()
      | p :: rest ->
          List.iter
            (fun q -> if not (consistent (st p) (st q)) then tr.divergent <- true)
            rest;
          go rest
    in
    go live

  (* Read service, interleaved with the write workload at round
     boundaries. Reads are paced by decided-slot progress (the whole
     budget is due by the time the target is reached), so staleness is
     sampled across the run, not at one instant. In snapshot mode the
     publisher runs first — publish-before-reads is what bounds every
     read's staleness by [publish_every - 1] decided slots. Latencies
     are chunk-timed: one clock read per chunk, divided out, because a
     single read is far below the clock's resolution; every read of a
     chunk gets that estimate, so one pair per chunk records them. *)
  let serve_reads cfg tr sref t =
    if cfg.reads > 0 then begin
      let dec = S.slots_decided sref in
      (match cfg.read_mode with
      | Read_snapshot
        when tr.last_pub < 0 || dec - tr.last_pub >= cfg.publish_every ->
          ignore (Snapshot.Store.publish tr.store (S.snapshot sref ~tick:t));
          tr.last_pub <- dec
      | _ -> ());
      let due = cfg.reads * min dec cfg.target_slots / cfg.target_slots in
      let chunk = min due cfg.reads - tr.reads_done in
      if chunk > 0 then begin
        let t0 = Sim.Clock.now () in
        (match cfg.read_mode with
        | Read_log ->
            for _ = 1 to chunk do
              tr.read_digest <-
                tr.read_digest lxor S.log_digest sref lxor S.slots_decided sref
            done
        | Read_snapshot ->
            for _ = 1 to chunk do
              match Snapshot.Store.current tr.store with
              | None -> ()
              | Some snap ->
                  tr.read_digest <-
                    tr.read_digest lxor snap.Snapshot.digest
                    lxor snap.Snapshot.version;
                  let stale = dec - snap.Snapshot.version in
                  if stale > tr.stale_max then tr.stale_max <- stale
            done);
        let el = Sim.Clock.elapsed t0 in
        tr.read_wall <- tr.read_wall +. el;
        tr.read_chunks <- (el /. float_of_int chunk, chunk) :: tr.read_chunks;
        tr.reads_done <- tr.reads_done + chunk
      end
    end

  (* The stop predicate doubles as the run's observer: it records slot
     completion times at the reference replica, the open-instance
     high-water mark, (optionally) pairwise consistency, and serves
     the read workload — both substrates call it at round boundaries,
     where all states are safely readable. *)
  let observe cfg pattern tr st t =
    tr.last_t <- max tr.last_t t;
    let correct = Sim.Failure_pattern.correct pattern in
    let live =
      List.filter
        (fun p -> not (Sim.Failure_pattern.crashed pattern p t))
        (Pid.all ~n:cfg.n)
    in
    List.iter
      (fun p -> tr.max_open <- max tr.max_open (S.open_instances (st p)))
      live;
    if cfg.continuous_check then check_pairwise tr st live;
    let sref = st (Pset.min_elt correct) in
    let d = min (S.slots_decided sref) cfg.target_slots in
    while tr.recorded < d do
      tr.recorded <- tr.recorded + 1;
      tr.comp.(tr.recorded) <- t
    done;
    serve_reads cfg tr sref t;
    Pset.for_all (fun p -> S.slots_decided (st p) >= cfg.target_slots) correct

  let finish cfg ~pattern ~tr ~states ~steps ~ticks ~wall ~sent ~lock_ops
      ~cas_retries ~sync_ops =
    let correct = Sim.Failure_pattern.correct pattern in
    let live = Pset.elements correct in
    check_pairwise tr (fun p -> states.(p)) live;
    let sref = states.(Pset.min_elt correct) in
    let gaps =
      List.init tr.recorded (fun i ->
          (float_of_int (tr.comp.(i + 1) - tr.comp.(i)), 1))
    in
    let read_pct q = percentile tr.read_chunks q *. 1e6 in
    {
      o_reached =
        Pset.for_all
          (fun p -> S.slots_decided states.(p) >= cfg.target_slots)
          correct;
      o_slots = S.slots_decided sref;
      o_ops = S.commands_applied sref;
      o_steps = steps;
      o_ticks = max ticks tr.last_t;
      o_wall = wall;
      o_p50 = percentile gaps 0.50;
      o_p99 = percentile gaps 0.99;
      o_divergent = tr.divergent;
      o_max_open = tr.max_open;
      o_log = S.log sref;
      o_log_base = S.log_base sref;
      o_sent = sent;
      o_reads = tr.reads_done;
      o_reads_per_sec =
        (if tr.read_wall > 0. then float_of_int tr.reads_done /. tr.read_wall
         else 0.);
      o_read_p50_us = read_pct 0.50;
      o_read_p99_us = read_pct 0.99;
      o_read_digest = tr.read_digest;
      o_stale_max = tr.stale_max;
      o_stale_bound =
        (match cfg.read_mode with
        | Read_snapshot when cfg.reads > 0 -> cfg.publish_every - 1
        | _ -> 0);
      o_snapshots = Snapshot.Store.published tr.store;
      o_lock_ops = lock_ops;
      o_cas_retries = cas_retries;
      o_sync_ops = sync_ops;
    }

  let setup cfg =
    let pattern = Sim.Failure_pattern.make ~n:cfg.n ~crashes:cfg.crashes in
    let oracle =
      Fd.Oracle.pair
        (Fd.Oracle.omega ~seed:cfg.seed pattern)
        (Fd.Oracle.sigma_nu_plus ~seed:cfg.seed pattern)
    in
    let tr =
      {
        comp = Array.make (cfg.target_slots + 1) 0;
        recorded = 0;
        max_open = 0;
        divergent = false;
        last_t = 0;
        store = Snapshot.Store.make ();
        read_chunks = [];
        reads_done = 0;
        read_wall = 0.;
        read_digest = 0;
        stale_max = -1;
        last_pub = -1;
      }
    in
    (pattern, oracle, tr)

  let sim cfg =
    let pattern, oracle, tr = setup cfg in
    let run =
      R.exec ~seed:cfg.seed ~faults:cfg.faults ~record:false
        ~stop:(observe cfg pattern tr) ~pattern ~fd:oracle.Fd.Oracle.query
        ~inputs:(commands_for cfg) ~max_steps:cfg.max_steps ()
    in
    finish cfg ~pattern ~tr ~states:run.R.states ~steps:run.R.step_count
      ~ticks:run.R.step_count ~wall:run.R.metrics.Sim.Runner.wall_seconds
      ~sent:run.R.messages_sent ~lock_ops:0 ~cas_retries:0 ~sync_ops:0

  let exec ~jobs cfg =
    let pattern, oracle, tr = setup cfg in
    let out =
      E.exec ~jobs
        ?shards:(if cfg.shards > 0 then Some cfg.shards else None)
        ~capacity:cfg.ring_capacity
        ~faults:cfg.faults ~stop:(observe cfg pattern tr) ~pattern
        ~fd:oracle.Fd.Oracle.query ~inputs:(commands_for cfg)
        ~max_steps:cfg.max_steps ()
    in
    finish cfg ~pattern ~tr ~states:out.E.states ~steps:out.E.step_count
      ~ticks:out.E.final_time ~wall:out.E.wall_seconds
      ~sent:out.E.stats.Sim.Transport.sent
      ~lock_ops:out.E.stats.Sim.Transport.lock_ops
      ~cas_retries:out.E.stats.Sim.Transport.cas_retries
      ~sync_ops:out.E.sync_ops
end

let run_sim cfg =
  validate cfg;
  let (module S : Smr.S) = make_smr cfg in
  let module D = Driver (S) in
  D.sim cfg

let run_exec ~jobs cfg =
  validate cfg;
  let (module S : Smr.S) = make_smr cfg in
  let module D = Driver (S) in
  D.exec ~jobs cfg
