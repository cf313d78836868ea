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
      and the lock-free ring transport (wall-clock throughput,
      interleaving chosen by the OS; deterministic at [jobs = 1]).

    Because an automaton's input is fixed at [initial], client
    streams are preloaded into each replica's pending queue; a
    command counts as {e submitted} when it leaves the queue for a
    slot proposal, and {e applied} when its slot's decision is
    harvested. Decision latency is measured at the reference replica
    (the smallest correct pid) as the gap, in logical ticks, between
    consecutive slot completions.

    A read workload can ride along ([reads > 0]): the coordinator
    serves read-only queries against the reference replica at round
    boundaries, paced by decided-slot progress. Both read modes are
    O(1) per read. [Read_log] reads the live replica's running
    full-log digest ({!Smr.S.log_digest}) and is never stale;
    [Read_snapshot] reads the newest {!Snapshot.t} from a lock-free
    {!Snapshot.Store} (an atomic load): an immutable view any domain
    may read, republished every [publish_every] decided slots
    {e before} the boundary's reads — which bounds every read's
    staleness by [publish_every - 1] slots (checked:
    [o_stale_max <= o_stale_bound]).

    Reads are timed per chunk, not per read: the reads served at one
    round boundary take one {!Sim.Clock} reading, and each read of the
    chunk is charged the chunk's time divided by its size. The clock
    ticks in 1 µs steps, so a chunk served in under 1 µs reads 0, and
    small runs (B14's smoke size) can print a read p50 of 0.000 µs.
    A run keeps one [(estimate, reads)] pair per chunk — memory
    O(slots), not O(reads). *)

type read_mode = Read_log | Read_snapshot

val read_mode_name : read_mode -> string
(** ["log"] / ["snapshot"] — the CLI spellings. *)

type config = {
  n : int;  (** replicas *)
  clients : int;  (** simulated clients, homed round-robin *)
  commands_per_client : int;
      (** length of each client's stream; [clients * commands_per_client]
          must stay [<= 10_000_000] *)
  batch : int;  (** commands packed per slot (see {!Smr.TUNING}) *)
  pipeline : int;  (** consensus instances open ahead *)
  window : int;  (** per-replica in-flight command cap *)
  retain : int;  (** applied-log slots kept before compaction *)
  horizon : int;  (** fallback retirement depth and lag bound *)
  target_slots : int;
      (** stop once every correct replica decided this many
          ([<= 1_000_000]) *)
  max_steps : int;  (** step budget *)
  seed : int;  (** scheduler / oracle / fault seed *)
  faults : Sim.Faults.t;
  crashes : (Procset.Pid.t * int) list;
  continuous_check : bool;
      (** check pairwise live-log consistency at every round boundary
          (not just at the end) — O(n² · retained) per round, meant
          for tests, not throughput measurement *)
  transport : Sim.Executor.transport;
      (** ignored: the executor has one backend, the lock-free ring.
          Kept because [perf/serve.ml] still sets it. *)
  shards : int;  (** executor shard count; 0 means "match jobs" *)
  ring_capacity : int;  (** per-mailbox ring slots ({!run_exec}) *)
  reads : int;
      (** read-only queries to serve across the run ([<= 1_000_000_000]) *)
  read_mode : read_mode;
  publish_every : int;
      (** snapshot republish cadence, in decided slots ([>= 1]) *)
}

val default : config
(** [n 3; clients 100; commands_per_client 4; batch 1; pipeline 1;
    window 64; retain 128; horizon 64; target_slots 50;
    max_steps 1_000_000; seed 0; no faults; no crashes;
    no continuous check; transport Ring; shards 0;
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
      (** 99th-percentile per-read latency, microseconds. Chunk-timed
          at 1 µs clock resolution: each read carries its chunk's
          estimate, so the percentiles are {!percentile} over the
          [(estimate, reads)] pairs and resolve chunk-level, not
          single-read, noise. *)
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
          {!run_sim}): the ring takes its lock only on overflow
          spills *)
  o_cas_retries : int;  (** failed transport CAS attempts (ring) *)
  o_sync_ops : int;  (** executor coordination ops (pool claims + joins) *)
}

val check : config -> (unit, string) result
(** [Ok ()] when {!run_sim} and {!run_exec} accept the config, else
    why not: a field out of range ([2 <= n <= Procset.Pset.max_size],
    [max_steps >= 1], ...), a tuning {!Smr.check_tuning} rejects, or a
    batched workload whose command values do not fit
    [Smr.Batch.max_command]. Sizes have upper bounds that keep a run
    finite: [target_slots <= 1_000_000], [clients] and
    [commands_per_client] each [<= 10_000_000] and so is their
    product (the command streams are built before the run), and
    [reads <= 1_000_000_000]. *)

val percentile : (float * int) list -> float -> float
(** [percentile pairs q] is the [q]-quantile of the multiset holding
    value [v] [w] times for each [(v, w)] in [pairs]: with [m] the
    total weight, the element at 0-based rank [ceil (q * m) - 1],
    clamped to [[0, m - 1]], of that multiset sorted ascending —
    exactly what indexing the sorted expansion gives, without
    building it. [0.] when [m = 0]. O(k log k) in the number of
    pairs. The read and commit-gap percentiles of an {!outcome}
    (each gap with weight 1) are this function. *)

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
