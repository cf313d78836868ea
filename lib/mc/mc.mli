(** Bounded model checking: exhaustive exploration of all admissible
    schedules of a [Sim.Automaton] for small universes.

    The walker explores every interleaving of (process scheduling,
    message-delivery choice, failure-detector value from a per-process
    menu) up to a depth bound, deduplicating confluent interleavings by
    canonical-state memoization and pruning commuting step pairs with
    sleep sets; safety properties are evaluated at every distinct
    reachable state. A violating schedule is re-executed concretely
    into a [Runner.replay]-compatible trace. See DESIGN.md for the
    state encoding, the pruning soundness argument and the depth-bound
    semantics. *)

open Procset

module Intern : module type of Intern
(** Cached-hash interning tables: hash a canonical state once, reuse
    the hash for every later lookup; the striped variant is the
    checker's shared visited set (with optional disk spill of
    cold stripes). *)

module Codec : module type of Codec
(** Byte-level primitives of the packed canonical-state encoding and
    the validated checkpoint container (varints, interning pools,
    [bytes_hash], [write_file]/[read_file]). *)

module Pool : module type of Sim.Pool
(** The hand-rolled domain pool behind [run ~jobs] and the parallel
    fuzzer. *)

exception Resume_rejected of Codec.error
(** Raised by [Make.run ~resume] (and [Explore.Make.fuzz ~resume])
    when the checkpoint file fails validation: bad magic, unsupported
    schema version, payload digest mismatch, a fingerprint from a
    different campaign, or stored state hashes that do not re-verify.
    Never a [Marshal] crash. *)

module Cover : module type of Cover
(** Memo-coverage records (budgets + sleep set): the
    domination/absorption logic behind memoization, in one place so
    the DPOR backtrack bookkeeping cannot re-entangle with it. *)

module Menu : sig
  (** Finite failure-detector menus: at every step the adversary gives
      a process any value from its menu. A menu is admissible for its
      detector class when every combination of choices satisfies the
      class's perpetual clauses; the eventual clauses constrain no
      finite prefix. *)

  type kind = Sigma | Sigma_nu | Sigma_nu_plus | Omega_only | Suspects_menu

  type t = {
    name : string;
    kind : kind;
    values : Pid.t -> Sim.Fd_value.t list;
    lossy : bool;
        (** when set, [Make.run] additionally lets the network drop
            the deliverable message of any cross-process channel at
            every transition (see {!lossy}) *)
  }

  val omega_sigma_nu : n:int -> faulty:Pset.t -> t
  (** [(Leader, Quorum)] pairs legal for [(Omega, Sigma-nu)]: correct
      processes trust any correct leader and output pairwise-
      intersecting quorums ([C] or [{p} ∪ F]); faulty processes may
      output all-faulty quorums. This family contains the Section 6.3
      contamination histories. *)

  val omega_sigma_nu_plus : n:int -> faulty:Pset.t -> t
  (** The same family, which also satisfies self-inclusion and
      conditional nonintersection — legal for [(Omega, Sigma-nu+)]. *)

  val omega_sigma : n:int -> faulty:Pset.t -> t
  (** Uniformly intersecting quorums through a correct pivot — legal
      for [(Omega, Sigma)]. *)

  val contamination :
    ?plus:bool ->
    ?quorum:Procset.Quorum_family.t ->
    n:int ->
    faulty:Pset.t ->
    unit ->
    t
  (** The focused Sigma-nu sub-family behind the Section 6.3
      contamination argument: the lowest correct process pinned to
      (its own leadership, the correct set), the other correct
      processes free to switch between the correct set and their own
      [{p} ∪ F], faulty processes seeing themselves. Legal for
      [(Omega, Sigma-nu)] — and, every quorum containing its owner,
      for [(Omega, Sigma-nu+)] when [plus] is set (the kind checked by
      {!validate}). Small enough that exhaustive exploration reaches
      the depth at which decisions — and the naive baseline's
      contaminated decisions — occur.

      With [?quorum], the correct set is generalized to the family's
      minimal quorums (owner added — families are monotone), grown
      inside the correct set when it is itself a quorum and inside
      [Pi] otherwise; every correct process (c0 included — some
      families leave the escape as the only contamination channel)
      gets the [{p} ∪ F] escape exactly where it stays
      Sigma-nu-legal (every offered family quorum contains [p] or
      touches [F]). [None] (the default) is the unparameterized
      construction, bit-for-bit. *)

  val lossy :
    ?plus:bool ->
    ?quorum:Procset.Quorum_family.t ->
    n:int ->
    faulty:Pset.t ->
    unit ->
    t
  (** The {!contamination} family over lossy links: identical
      detector menus, plus a network adversary that may silently
      discard the deliverable message of any cross-process channel at
      each transition. Under FIFO links arbitrary loss makes each
      channel's delivered sequence exactly a subsequence of its send
      sequence, and the per-head deliver-or-drop choice generates
      every subsequence — so the exploration stays exhaustive for the
      lossy network model. The schedule space strictly contains the
      loss-free one; detector legality ({!validate}) is unchanged. *)

  val leader_only : n:int -> faulty:Pset.t -> t
  (** Bare [Leader] values (for MR-majority). *)

  val suspects : n:int -> faulty:Pset.t -> t
  (** [Suspects] menus for [<>S]-driven algorithms (CT): the adversary
      may suspect nobody, exactly the faulty set, or additionally one
      correct process. *)

  val validate : pattern:Sim.Failure_pattern.t -> t -> (unit, string) result
  (** Certifies menu admissibility by checking the detector class's
      perpetual clauses ({!Fd.Check.intersection},
      {!Fd.Check.self_inclusion},
      {!Fd.Check.conditional_nonintersection}) over the dense history
      containing every menu value — which dominates every history an
      exploration can sample. [pattern] must be the failure pattern the
      exploration runs under (the same one given to {!history_legal}),
      so the certificate and the run refer to one pattern. *)
end

val history_legal :
  kind:Menu.kind ->
  pattern:Sim.Failure_pattern.t ->
  (Pid.t * int * Sim.Fd_value.t) list ->
  (unit, string) result
(** Checks the detector samples of one concrete explored run against
    the perpetual clauses of the class — the finite-prefix fragment of
    admissibility, as in [Core.Scenario]'s history validation. *)

type reduction = No_reduction | Sleep_sets | Dpor
(** Transition-pruning reductions, all state-preserving (same verdict
    and [distinct_states]; pinned by the differential battery in
    test_dpor.ml):

    - [No_reduction]: every enabled move expanded everywhere.
    - [Sleep_sets] (the default): pid-disjointness sleep sets — after
      a move by process [p], earlier siblings and inherited sleepers
      with a different pid stay asleep; drop moves are never slept.
    - [Dpor]: happens-before sleep inheritance over the full
      independence relation ([Make.move_dependent]) — a sleeper is
      woken only by a move it actually races with (same process, or
      same channel for drops), drop moves are slept too, and known
      no-op lambda steps are skipped at move generation. Detected
      races and woken sleepers (the DPOR backtrack points) are
      reported in [stats.races] / [stats.backtracks]. *)

val pp_reduction : Format.formatter -> reduction -> unit
(** ["none"], ["sleep"] or ["dpor"] — the [--reduction] spelling. *)

type stats = {
  transitions : int;  (** edges taken (including into already-seen states) *)
  distinct_states : int;  (** canonical states after deduplication *)
  dedup_hits : int;
      (** transitions absorbed by memoization (0 when [dedup] is off) *)
  self_loops : int;
      (** transitions skipped because child = parent; under [Dpor]
          this includes cached no-op lambda skips, which do not count
          as [transitions] *)
  sleep_skipped : int;  (** moves pruned by sleep sets *)
  races : int;
      (** [Dpor] only: dependent (taken move, sleeping candidate)
          pairs detected during sleep-set inheritance; 0 otherwise *)
  backtracks : int;
      (** [Dpor] only: inherited sleepers woken by a race — the
          backtrack points re-inserted into the sibling exploration;
          0 otherwise *)
  decided_leaves : int;  (** states where [stop] held, not expanded *)
  depth_leaves : int;  (** states truncated by the depth bound *)
  max_depth : int;
  truncated : bool;  (** hit [max_states]; exploration incomplete *)
  wall_seconds : float;
}
(** Exploration statistics; shared by every {!Make} instantiation. *)

val states_per_sec : stats -> float
val pp_stats : Format.formatter -> stats -> unit

module Make (A : Sim.Automaton.S) : sig
  module R : module type of Sim.Runner.Make (A)

  type move = {
    m_pid : Pid.t;  (** the process taking the step *)
    m_fd : Sim.Fd_value.t;  (** the detector value it sees *)
    m_recv : (Pid.t * int) option;
        (** [Some (src, i)]: deliver the [i]-th pending message of the
            [src -> m_pid] channel; [None]: receive lambda *)
    m_drop : bool;
        (** lossy-menu network move: the message designated by
            [m_recv] is discarded instead of delivered — no process
            steps, no detector value is sampled ([m_fd] is [Unit]),
            and the concretized trace contains no step for it *)
  }

  val move_dependent : move -> move -> bool
  (** The static dependence (non-commutation) relation over the move
      alphabet — the happens-before core of the [Dpor] reduction. Two
      moves are independent ([move_dependent a b = false]) when, from
      any configuration enabling both, executing them in either order
      yields the same configuration and neither disables the other:
      two non-drop moves are dependent iff they step the same
      process; a drop is dependent with exactly the moves that
      consume from its channel (another drop of the same channel, or
      the delivery of it). The fault verdict of a drop is part of the
      move itself (its channel and index — the abstraction of
      [Sim.Faults]' [(src, dst, seq, time)] keys), so there is no
      hidden verdict state to race on. Symmetric, and reflexive
      (every move is dependent with itself — in particular two moves
      on the same channel are never independent). *)

  val trace_key : move list -> int
  (** Canonical Mazurkiewicz-trace key: schedules that differ only by
      swaps of adjacent independent moves (under {!move_dependent})
      hash to the same key. Computed by greedily linearizing the
      schedule's dependence DAG by minimal move and hashing the
      resulting label sequence; O(length²). Used by [lib/explore] to
      deduplicate fuzz coverage up to commutation, and by the
      independence property tests. *)

  type property = {
    prop_name : string;
    prop_check : (Pid.t -> A.state) -> (unit, string) result;
  }
  (** A safety property, evaluated at every distinct reachable
      state. *)

  val invariant :
    name:string ->
    ((Pid.t -> A.state) -> (unit, string) result) ->
    property
  (** A user-supplied invariant. *)

  val consensus_props :
    decision:(A.state -> Consensus.Value.t option) ->
    proposals:(Pid.t -> Consensus.Value.t) ->
    flavour:Consensus.Spec.flavour ->
    pattern:Sim.Failure_pattern.t ->
    property list
  (** Validity and (uniform or nonuniform) agreement over the
      decisions visible in a configuration, via {!Consensus.Spec}. *)

  val decided_stop :
    decision:(A.state -> 'v option) ->
    scope:Pset.t ->
    (Pid.t -> A.state) ->
    bool
  (** Goal predicate: every process of [scope] has decided. Stopped
      states are never expanded, so [scope] must contain every process
      whose decision the checked properties constrain: the correct set
      for nonuniform agreement, but [Pset.full] for uniform agreement —
      with a correct-only scope a faulty process could decide a
      conflicting value in a pruned continuation. *)

  type counterexample = {
    cx_property : string;
    cx_detail : string;
    cx_moves : move list;
    cx_steps : R.replay_step list;
    cx_samples : (Pid.t * int * Sim.Fd_value.t) list;
    cx_states : A.state array;
  }

  type report = { stats : stats; violation : counterexample option }

  val run :
    ?reduction:reduction ->
    ?dedup:bool ->
    ?delivery:[ `Fifo | `Any ] ->
    ?max_states:int ->
    ?max_drops:int ->
    ?jobs:int ->
    ?checkpoint:string * int ->
    ?resume:string ->
    ?spill_dir:string ->
    ?stop:((Pid.t -> A.state) -> bool) ->
    n:int ->
    menu:Menu.t ->
    depth:int ->
    inputs:(Pid.t -> A.input) ->
    props:property list ->
    unit ->
    report
  (** [run ~n ~menu ~depth ~inputs ~props ()] explores every schedule
      of at most [depth] steps. [reduction] (default [Sleep_sets])
      picks the transition-pruning reduction (see {!reduction}); all
      three yield the same verdict and the same [distinct_states],
      with [Dpor] taking the fewest transitions. [dedup] (default
      true) enables canonical-state
      memoization; [delivery] (default [`Fifo]) picks the channel
      model: [`Fifo] delivers each (src, dst) channel in send order —
      the standard FIFO-link network model, under which the exploration
      is exhaustive; [`Any] additionally explores every per-channel
      reordering the runner's [Matching] latitude allows, at a steep
      state-space cost; [max_states] (default 2e6) aborts exploration
      (the report is marked [truncated]); [stop] marks goal states that
      are recorded but not expanded. Returns the first property violation
      found, with its concrete schedule, or [None] after exhausting the
      bounded space.

      When [menu.lossy] is set, every transition additionally offers
      the network moves described at {!Menu.lossy}; a drop consumes
      one unit of [depth] like any other move. The loss-free subtree
      is explored first, so a loss-free counterexample is found
      before any lossy one. [max_drops] (default unlimited) bounds the
      number of drops {e per schedule}: exploration is then exhaustive
      for the runs in which the network loses at most [max_drops]
      messages — the loss-bounded analogue of the depth bound, which
      keeps deep lossy explorations tractable. The memoization entry
      tracks the remaining loss budget alongside the remaining depth,
      so absorption stays sound across paths that reach a state with
      different budgets.

      [jobs] (default 1) sets how many domains run the exploration.
      There is one engine: a prefix walk queues the root frontier
      (depth-2 expansions) as tasks over a striped visited table
      ({!Intern.Striped}), and the tasks run to completion — inline,
      in queue order, at [jobs <= 1]; fanned out over [jobs] domains
      otherwise, with sleep-set pruning kept per worker. At
      [jobs = 1] the walk is deterministic, and every counter is
      identical with or without [checkpoint] and across kill/resume.
      At any [jobs] the verdict and — on non-truncated explorations —
      [distinct_states] and [decided_leaves] are the same
      (exploration order does not change which states are reachable
      within the bounds; pinned per menu family in test_mc.ml), while
      the interleaving-dependent counters ([transitions],
      [dedup_hits], [self_loops], [sleep_skipped], [races],
      [backtracks], [depth_leaves], [max_depth]) and the identity of
      the counterexample, when one exists, may vary with [jobs > 1].
      [wall_seconds] is always one monotonic-clock read on the
      coordinating domain, never a per-domain sum.

      [checkpoint:(path, every_n_states)] makes the campaign
      resumable: the task queue is processed in chunks and a
      versioned snapshot — fingerprint, packed state/message pools,
      the visited set as packed bytes, the known no-op lambda steps,
      the task queue and cursor, cumulative counters — is written to [path] (atomically, temp + rename)
      whenever at least [every_n_states] new distinct states have
      accumulated since the last write, always at a task-chunk
      boundary where every memoization claim is fulfilled. [resume]
      restores such a snapshot after full validation (raising
      {!Resume_rejected} otherwise) and continues from the cursor: a
      resumed campaign reproduces the uninterrupted run's verdict and
      [distinct_states] exactly (at [jobs = 1], every counter but
      [wall_seconds]), and its [max_states] budget is
      cumulative across segments (a truncated campaign resumed under
      the same budget truncates again immediately; [stats.truncated]
      reflects the whole campaign). In checkpointed mode the budget
      is enforced at chunk boundaries only, so the final state count
      may overshoot [max_states] by at most one chunk's subtrees.
      [spill_dir] additionally moves cold stripes of the visited set
      into [Codec]-container segment files under that directory at
      each boundary, bounding resident memory; spilled stripes reload
      transparently on access. *)

  val replay_counterexample :
    n:int ->
    inputs:(Pid.t -> A.input) ->
    counterexample ->
    (A.state array, string) result
  (** Validates the concrete counterexample trace with {!R.replay} —
      the independent applicability check of Lemma 2.2. *)

  val pp_replay_step : Format.formatter -> R.replay_step -> unit
  val pp_counterexample : Format.formatter -> counterexample -> unit

  (** The abstract schedule space behind {!run}, exposed for
      randomized exploration ([Explore]): abstract configurations,
      the enabled-move alphabet, move application, and the
      concretization that turns an abstract schedule into a
      [Runner.replay]-compatible trace. A sampler built on this space
      draws from exactly the schedules the checker enumerates, and
      its counterexamples carry the same certificate. *)
  module Space : sig
    type config
    (** Abstract configuration: per-process automaton states plus
        per-channel pending payloads — the canonical state {!run}
        memoizes on (no clock, no envelope metadata). *)

    val initial : n:int -> inputs:(Pid.t -> A.input) -> config
    val state : config -> Pid.t -> A.state

    val equal : config -> config -> bool
    (** Structural equality, compared slot by slot (per-process state,
        per-channel queue) and skipping physically equal slots, which
        {!apply} shares whenever the move leaves them alone. *)

    val self_loop : n:int -> config -> move -> bool
    (** [self_loop ~n cfg mv] iff [equal (apply ~n cfg mv) cfg]: the
        move leaves the configuration unchanged. A drop, or a delivery
        from another process, shortens its channel while a step only
        appends to the stepper's own outgoing channels, so for those
        it answers [false] without applying the move; only a lambda or
        a self-delivery is applied and compared. The move must be
        {!applicable}. The same rule decides {!run}'s [self_loops]. *)

    val key : config -> int
    (** The canonical-state hash (the one memoization buckets on);
        collisions are possible, so it is a coverage statistic, not an
        identity. *)

    val enabled :
      n:int ->
      delivery:[ `Fifo | `Any ] ->
      lossy:bool ->
      menus:Sim.Fd_value.t list array ->
      config ->
      move list
    (** Every move admissible at [config] — exactly the alphabet
        {!run} expands: one move per (process, delivery choice or
        lambda, menu value), plus, when [lossy], one network-drop move
        per deliverable cross-process message. *)

    val applicable : n:int -> config -> move -> bool
    (** Whether the move's delivery choice designates a pending
        message of [config] (vacuously true for lambda moves) — the
        schedule-shrinking validity check. *)

    val apply : n:int -> config -> move -> config
    (** Applies one move. The move must be {!applicable}. *)

    val concretize :
      n:int ->
      inputs:(Pid.t -> A.input) ->
      move list ->
      R.replay_step list * (Pid.t * int * Sim.Fd_value.t) list * A.state array
    (** Re-executes an abstract schedule with real envelopes (runner
        sequence numbers, a global clock) into the
        [(replay steps, detector samples, final states)] triple that
        {!replay_counterexample} and {!history_legal} certify. *)
  end

  (** The packed canonical-state codec behind the visited set and the
      checkpoint files: distinct per-process states and distinct
      message payloads are interned into pools, and a configuration
      becomes a flat byte string of varint pool indices (process
      states in pid order, then the non-empty channels in canonical
      order with length-prefixed queues). Exposed for the B12 memory
      benchmark and the round-trip test battery; {!run} uses it
      internally. *)
  module Packed : sig
    type pool
    (** The interning pools (mutex-protected; parallel workers encode
        concurrently). *)

    val create : n:int -> pool

    val encode : pool -> Space.config -> Bytes.t
    (** Injective with respect to {!Space.equal} under one pool:
        [Bytes.equal (encode p a) (encode p b)] iff [Space.equal a b] —
        which is why distinct states (crafted hash collisions
        included) stay distinct in the packed visited set. *)

    val encode_child : pool -> key:Bytes.t -> move -> Space.config -> Bytes.t
    (** [encode_child p ~key mv child] equals [encode p child] when
        [key = encode p parent] and [child = Space.apply ~n parent mv],
        and leaves the pools as [encode p child] would. It copies the
        parent key's untouched state indices and message indices, cuts
        the consumed message's index, and interns only the stepped
        process's new state and the messages its step appended — the
        per-transition key {!run} builds. *)

    val sizes : pool -> int * int
    (** Distinct (process states, message payloads) interned so far. *)

    val decode : pool -> Bytes.t -> Space.config
    (** Exact inverse of {!encode} on the same pool. Raises
        [Invalid_argument] on bytes the pool cannot decode. *)
  end
end
