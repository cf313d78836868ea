(** Running automata on real domains: the concurrent counterpart of
    {!Runner.Make}.

    [Executor.Make (A)] drives the {e same} deterministic automata as
    the simulator, but over a multi-domain transport and a {!Pool} of
    domains. Replicas are pinned to {e shards} ([p mod shards]); each
    round, every shard is claimed by some worker domain and its
    processes are stepped for a slice of consecutive steps. Work
    steals only across shards — a domain that drains its shard claims
    the next unclaimed shard off the pool counter, but a process
    never migrates mid-round, so each mailbox has a single consumer
    per round (the invariant the lock-free ring transport requires).
    Steps are counted in per-shard counters merged at round joins —
    not the former global atomic incremented on every step — so the
    executor's own bookkeeping adds no shared-cache contention to the
    hot path ({!outcome.sync_ops} counts what remains).

    Messages travel over the lock-free {!Transport.Ring} (CAS
    producers into bounded MPSC rings, consumer-side reordering), which
    supports every fault spec. With [jobs = 1] the schedule is
    sequential and deterministic; test_ring pins served runs at
    [jobs = 1], and pins the transport against {!Transport.Simulated}.

    Determinism boundary (DESIGN.md §5e): per-message fault verdicts
    are pure hashes of [(seed, src, dst, seq, time)] exactly as in the
    simulator, so the fault {e mechanism} adds no nondeterminism of
    its own — but [seq] and [time] depend on the interleaving, so a
    seeded executor run at [jobs > 1] is statistically, not bitwise,
    reproducible. Safety properties must hold on every interleaving;
    replaying a specific trace is the simulator's job.

    The [stop] predicate is evaluated between rounds, after all
    workers have joined — at that point every state in [states] is
    published and safe to read. A zero-step round is re-checked a
    bounded number of times under exponential backoff
    ([Domain.cpu_relax], then short sleeps capped at 1 ms) before the
    executor concludes every process has crashed — an idle executor
    neither spins a core nor miscounts: its [step_count] stays
    exact. *)

type transport = Ring
(** The only backend, {!Transport.Ring}. Kept, with [exec]'s ignored
    [?transport] argument, because [perf/serve.ml] still names both. *)

module Make (A : Automaton.S) : sig
  type outcome = {
    states : A.state array;  (** last state of each process *)
    step_count : int;  (** total steps taken by all processes *)
    final_time : int;  (** last value of the global clock *)
    stopped_early : bool;  (** [stop] fired before [max_steps] *)
    stats : Transport.stats;  (** transport traffic counters *)
    pending : int;
        (** messages still in flight at the end, the right-hand
            [pending-at-stop] of {!Transport.stats}' conservation
            law *)
    wall_seconds : float;  (** wall-clock duration *)
    sync_ops : int;
        (** global synchronizations performed by the executor's own
            coordination (pool task claims + joins) — excludes the
            transport's. The pre-shard design paid one atomic
            read-modify-write {e per step}; this counts rounds, and
            is 0 in a [jobs = 1] run. *)
  }

  val exec :
    ?jobs:int ->
    ?shards:int ->
    ?transport:transport ->
    ?capacity:int ->
    ?faults:Faults.t ->
    ?stop:((Procset.Pid.t -> A.state) -> int -> bool) ->
    pattern:Failure_pattern.t ->
    fd:(Procset.Pid.t -> int -> Fd_value.t) ->
    inputs:(Procset.Pid.t -> A.input) ->
    max_steps:int ->
    unit ->
    outcome
  (** [exec ~pattern ~fd ~inputs ~max_steps ()] runs all processes
      until [max_steps] total steps or until [stop states time] holds
      at a round boundary. [step_count <= max_steps] always: rounds
      that could overshoot fall back to an exactly-budgeted
      sequential finishing round.

      [jobs] (default {!Pool.default_jobs}) is the domain count;
      [jobs <= 1] runs every slice inline on the calling domain — a
      sequential but still slice-interleaved schedule, a pure function
      of the arguments. [shards] (default [jobs], clamped to
      [\[1, n\]]) is the number of replica groups domains claim as
      units. [transport] is ignored. [capacity] is the ring's
      per-mailbox capacity.
      Each round a process takes a slice of up to 64 consecutive
      steps, and every 8th step of a slice receives lambda even when
      messages are pending, so a flooded process still takes the
      spontaneous steps protocols need for timeouts and
      retransmissions. Crashed
      processes ([pattern]) take no further steps from their crash
      tick onward, and the ring discards sends addressed to them from
      that tick on ([stats.discarded]). [fd p t] must be safe to call
      from any domain ({!Fd.Oracle} queries are pure, so oracles
      qualify). *)
end
