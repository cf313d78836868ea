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
      same channel for drops), drop moves are slept too, and a lambda
      step the walk's transition table already knows to change
      nothing is skipped at move generation. Detected
      races and woken sleepers (the DPOR backtrack points) are
      reported in [stats.races] / [stats.backtracks]. *)

val pp_reduction : Format.formatter -> reduction -> unit
(** ["none"], ["sleep"] or ["dpor"] — the [--reduction] spelling. *)

type stats = {
  transitions : int;
      (** edges taken (including into already-seen states). Each is
          derived through the transition table ({!Make.Packed.child}):
          [A.step] runs once per distinct (pid, state, received message,
          detector value), not once per transition. *)
  distinct_states : int;  (** canonical states after deduplication *)
  dedup_hits : int;
      (** transitions absorbed by memoization (0 when [dedup] is off) *)
  self_loops : int;
      (** transitions skipped because child = parent, decided on pool
          indices; under [Dpor] this includes the lambda steps skipped
          because the transition table already holds them as no-ops,
          which do not count as [transitions] *)
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

  val move_equal : move -> move -> bool
  (** Structural equality of moves; detector values compare with
      [Sim.Fd_value.equal]. *)

  (** Moves as integer codes, the form {!run}'s walk carries them in:
      sleep sets, memo coverage, frontier tasks and the path are int
      lists, and the transition table reads its key out of a code. A
      code packs the pid, the receive source or lambda, the receive
      index, the drop flag and the {e canonical} menu index of the
      detector value — the first position of the process's menu
      holding a [Sim.Fd_value.equal] value (0 for a drop) — so two
      codes are equal exactly when their moves are, and a menu that
      lists one value twice gives both positions one code. *)
  module Code : sig
    type alphabet
    (** The field widths and canonical menu indices of one universe:
        [n] and each process's menu. *)

    val alphabet : n:int -> menus:Sim.Fd_value.t list array -> alphabet

    val code : alphabet -> move -> int
    (** Raises [Invalid_argument] on a non-drop move whose detector
        value is not in its process's menu. *)

    val move : alphabet -> int -> move
    (** The inverse of {!code} up to equal moves: the detector value is
        the menu's own value at the canonical index. *)
  end

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
      resulting label sequence. Dependence is sharing a process or a
      channel, so the walk tracks each one's next untaken move
      instead of comparing every pair. Used by [lib/explore] to
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

      The walk carries moves as integer codes ({!Code}) and
      configurations as pool-index nodes ({!Packed.node}): sleep sets,
      memo coverage, frontier tasks and the path hold codes, and a
      code becomes a {!move} again only for the counterexample and in
      a checkpoint. It steps each distinct (pid, state, received
      sender and payload or lambda, detector value) once: every later
      transition with the same key reads its successor from a
      per-worker transition table ({!Packed.table}), in one probe that
      also answers [Dpor]'s known-no-op skip. That is sound because
      [A.step] must be a function of exactly those arguments and [n]
      — the envelope's [seq] and [sent_at] are abstracted away, as
      everywhere in this checker.

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
      the visited set as packed bytes, the transition tables' lambda
      no-op entries, the task queue and cursor, cumulative counters —
      is written to [path] (atomically, temp + rename)
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

    type verdicts
    (** A per-process memo of {!self_loop} verdicts, for the
        configurations of one sampled run. *)

    val verdicts : config -> verdicts
    (** An empty memo for [config]'s processes. *)

    val candidates :
      verdicts ->
      n:int ->
      delivery:[ `Fifo | `Any ] ->
      lossy:bool ->
      menus:Sim.Fd_value.t list array ->
      config ->
      move list
    (** [candidates vd ~n ~delivery ~lossy ~menus cfg] is
        [List.filter (fun mv -> not (self_loop ~n cfg mv)) (enabled ~n
        ~delivery ~lossy ~menus cfg)], built in one pass over
        {!enabled}'s enumeration: only the moves kept are collected.
        Only a lambda or self-delivery move consults [vd]. Its verdict
        is kept per process and decided again through {!self_loop}
        only when the process's state, or for a self-delivery its
        self-channel, is no longer physically the slot the verdict was
        decided on. Besides those slots a verdict depends only on the
        move's detector value and, for a self-delivery, its index —
        the memo's keys — and {!apply} shares every slot it leaves
        alone, so physical identity is exact invalidation (DESIGN.md
        §5c). *)

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
        per deliverable cross-process message. The order is written
        once, in one enumeration that this list, {!run}'s expansion and
        {!candidates} all walk: processes in pid order, each one's
        delivery choices and then lambda, each crossed with its menu
        values in menu order; then the drops, per process. *)

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
      order with length-prefixed queues). {!run} walks on the index
      configurations these keys serialize ({!node}), enumerates each
      node's moves as codes ({!codes}), derives each child's indices
      from a code through a transition table ({!child}), and writes
      each child's key and its hash in one pass ({!key}). Exposed for
      the B12 memory benchmark and the round-trip and differential
      test batteries. *)
  module Packed : sig
    type pool
    (** The interning pools (mutex-protected; parallel workers intern
        concurrently). *)

    val create : n:int -> pool

    val encode : pool -> Space.config -> Bytes.t
    (** Injective with respect to {!Space.equal} under one pool:
        [Bytes.equal (encode p a) (encode p b)] iff [Space.equal a b] —
        which is why distinct states (crafted hash collisions
        included) stay distinct in the packed visited set. *)

    type node
    (** An index configuration: the state pool index of each process
        and the message pool indices queued on each channel — exactly
        what a packed key serializes. *)

    val node : pool -> Space.config -> node
    (** Interns the configuration's values in the order {!encode}
        does; [encode p cfg] is [key buf (node p cfg)]. *)

    val key : Codec.Scratch.t -> node -> Bytes.t Intern.hashed
    (** The node's packed key with its [Codec.bytes_hash], written in
        one pass through the scratch (reset first) and copied out, so a
        walk reuses one scratch per worker. *)

    type table
    (** A transition table over one pool and one {!Code.alphabet}: per
        (state index, message index or lambda, move code less its
        receive index), the successor state's index and the message
        indices the step appends per channel. The code's remaining
        fields name the pid, the source and the detector value, so the
        key is exact, and a probe allocates nothing and hashes no
        value. It rests on [A.step] being a function of [(n, self,
        state, received src and payload, detector value)] — the
        abstraction {!run} already assumes; envelope [seq] and
        [sent_at] are never read. *)

    val table : pool -> Code.alphabet -> table

    val codes :
      table -> delivery:[ `Fifo | `Any ] -> lossy:bool -> node -> int list
    (** The codes of the moves {!Space.enabled} lists at the node's
        configuration, in the same order: the walk's enumeration, which
        reads the node's index channels (under [`Any] it compares the
        pool values to pick representatives). *)

    type derived =
      | Known_noop
          (** only with [~skip_noops]: a lambda step the table already
              holds as changing nothing *)
      | Self_loop
      | Child of node

    val child : table -> skip_noops:bool -> node -> int -> derived
    (** [child tb ~skip_noops:false (node p cfg) (Code.code a mv)] is
        [Child (node p (Space.apply ~n cfg mv))], or [Self_loop]
        exactly when [Space.self_loop ~n cfg mv]. One table probe
        serves the step: a miss runs [A.step] once on the pools'
        values and interns the new state, then the appended messages
        by ascending channel, which is the order {!encode} meets them
        in the child, so keys and pool indices are those of encoding
        the child whole. A hit runs no step and takes no lock. Drops
        never touch the table. With [~skip_noops:true] (the [Dpor]
        walk) the same probe answers [Known_noop] for a lambda step
        already in the table as a no-op. The move must be
        {!Space.applicable}. *)

    val sizes : pool -> int * int
    (** Distinct (process states, message payloads) interned so far. *)

    val decode : pool -> Bytes.t -> Space.config
    (** Exact inverse of {!encode} on the same pool. Raises
        [Invalid_argument] on bytes the pool cannot decode. *)
  end
end
