(** Closed-loop client load over the replicated log.

    Thousands of simulated clients, each homed on a replica, submit
    fixed command streams; the replica's in-flight window ([window])
    caps how many of its clients' commands may sit in undecided
    proposals at once, which is exactly a closed-loop client pool
    with that many outstanding requests. The same workload runs on
    either substrate:

    - {!run_sim} — the deterministic {!Sim.Runner} (seeded,
      replayable, one step per tick);
    - {!run_exec} — the concurrent {!Sim.Executor} over real domains
      (wall-clock throughput, interleaving chosen by the OS).

    Because an automaton's input is fixed at [initial], client
    streams are preloaded into each replica's pending queue; a
    command counts as {e submitted} when it leaves the queue for a
    slot proposal, and {e applied} when its slot's decision is
    harvested. Decision latency is measured at the reference replica
    (the smallest correct pid) as the gap, in logical ticks, between
    consecutive slot completions.

    A read workload can ride along ([reads > 0]): the coordinator
    serves read-only queries against the reference replica at round
    boundaries, paced by decided-slot progress. [Read_log] recomputes
    the full-log digest from live state per read ([O(retained)]);
    [Read_snapshot] reads the newest {!Snapshot.t} from a lock-free
    {!Snapshot.Store} (an atomic load), republished every
    [publish_every] decided slots {e before} the boundary's reads —
    which bounds every read's staleness by [publish_every - 1] slots
    (checked: [o_stale_max <= o_stale_bound]). *)

type read_mode = Read_log | Read_snapshot

val read_mode_name : read_mode -> string
(** ["log"] / ["snapshot"] — the CLI spellings. *)

val read_mode_of_string : string -> read_mode option
(** Accepts ["log"], ["snapshot"], and ["snap"]. *)

type config = {
  n : int;  (** replicas *)
  clients : int;  (** simulated clients, homed round-robin *)
  commands_per_client : int;  (** length of each client's stream *)
  batch : int;  (** commands packed per slot (see {!Smr.TUNING}) *)
  pipeline : int;  (** consensus instances open ahead *)
  window : int;  (** per-replica in-flight command cap *)
  retain : int;  (** applied-log slots kept before compaction *)
  horizon : int;  (** fallback retirement depth and lag bound *)
  target_slots : int;  (** stop once every correct replica decided this many *)
  max_steps : int;  (** step budget *)
  seed : int;  (** scheduler / oracle / fault seed *)
  faults : Sim.Faults.t;
  crashes : (Procset.Pid.t * int) list;
  continuous_check : bool;
      (** check pairwise live-log consistency at every round boundary
          (not just at the end) — O(n² · retained) per round, meant
          for tests, not throughput measurement *)
  transport : Sim.Executor.transport;
      (** executor backend ({!run_exec} only): mutex-per-mailbox
          oracle or lock-free ring *)
  shards : int;  (** executor shard count; 0 means "match jobs" *)
  ring_capacity : int;  (** per-mailbox ring slots (ring transport) *)
  reads : int;  (** read-only queries to serve across the run *)
  read_mode : read_mode;
  publish_every : int;
      (** snapshot republish cadence, in decided slots ([>= 1]) *)
}

val default : config
(** [n 3; clients 100; commands_per_client 4; batch 1; pipeline 1;
    window 64; retain 128; horizon 64; target_slots 50;
    max_steps 1_000_000; seed 0; no faults; no crashes;
    no continuous check; transport Mutex; shards 0;
    ring_capacity 1024; reads 0; read_mode Read_log;
    publish_every 8]. *)

type outcome = {
  o_reached : bool;  (** every correct replica hit [target_slots] *)
  o_slots : int;  (** slots decided at the reference replica *)
  o_ops : int;  (** commands applied at the reference replica *)
  o_steps : int;  (** total steps taken *)
  o_ticks : int;  (** final logical time *)
  o_wall : float;  (** wall-clock seconds *)
  o_p50 : float;  (** median slot-completion gap, logical ticks *)
  o_p99 : float;  (** 99th-percentile slot-completion gap *)
  o_divergent : bool;
      (** some pair of live replicas had inconsistent logs — with
          [continuous_check], at any observed round; always also
          checked on the final states *)
  o_max_open : int;  (** high-water mark of open consensus instances *)
  o_log : Consensus.Value.t list;  (** reference replica's retained log *)
  o_log_base : int;  (** its compaction base *)
  o_sent : int;  (** transport-level messages sent *)
  o_reads : int;  (** read queries actually served *)
  o_reads_per_sec : float;
      (** reads over the wall time spent inside read chunks only (the
          write workload's time is excluded) *)
  o_read_p50_us : float;  (** median per-read latency, microseconds *)
  o_read_p99_us : float;
      (** 99th-percentile per-read latency, microseconds. Chunk-timed:
          reads are served in chunks of one clock read each, so
          percentiles resolve chunk-level, not single-read, noise. *)
  o_read_digest : int;
      (** XOR-fold of every read's [(digest, version)] — consumed so
          reads cannot be optimized away, and equal across runs with
          equal schedules *)
  o_stale_max : int;
      (** worst staleness any read observed, in decided slots; [-1] if
          no snapshot read was served *)
  o_stale_bound : int;
      (** the declared bound [publish_every - 1] (snapshot mode with
          reads; 0 otherwise) — a run is correct only if
          [o_stale_max <= o_stale_bound] *)
  o_snapshots : int;  (** snapshots published to the store *)
  o_lock_ops : int;
      (** transport mutex acquisitions ({!run_exec}; 0 under
          {!run_sim}) — the mutex backend pays one per send/recv
          probe, the ring only on overflow spills *)
  o_cas_retries : int;  (** failed transport CAS attempts (ring) *)
  o_sync_ops : int;  (** executor coordination ops (pool claims + joins) *)
}

val check : config -> (unit, string) result
(** [Ok ()] when {!run_sim} and {!run_exec} accept the config, else
    why not: a field out of range ([2 <= n <= Procset.Pset.max_size],
    [max_steps >= 1], ...), a tuning {!Smr.check_tuning} rejects, or a
    batched workload whose command values do not fit
    [Smr.Batch.max_command]. *)

val commands_for : config -> Procset.Pid.t -> Consensus.Value.t list
(** The command stream preloaded at one replica: its clients' streams
    interleaved round-robin, one request per client per round. Values
    are unique across the whole workload (and within
    [Smr.Batch.max_command] when [batch > 1]).
    @raise Invalid_argument with {!check}'s message on a bad config. *)

val run_sim : config -> outcome
(** The workload under the deterministic simulator. Pure function of
    the config.
    @raise Invalid_argument with {!check}'s message on a bad config. *)

val run_exec : jobs:int -> config -> outcome
(** The workload under the concurrent executor with [jobs] domains.
    Safety observables ([o_divergent]) hold on every interleaving;
    throughput and latency vary run to run.
    @raise Invalid_argument with {!check}'s message on a bad config. *)
