(** State-machine replication on top of nonuniform consensus.

    The classical application of consensus, built as one automaton:
    replicas agree on a command batch per log slot by running one
    instance of a consensus automaton ({!Consensus.Spec.S}) per slot,
    all multiplexed over the same network (messages are tagged with
    their slot). A replica proposes the head of its pending-command
    queue for each slot it opens, keeps up to [pipeline] instances
    open at once, forwards pending commands to the detector's current
    leader (whose proposals are the ones that win once the detector
    stabilizes), retires a slot's instance once every replica has
    reported deciding the slot (or, failing that, once it falls
    [horizon] slots behind), and compacts the applied log beyond a
    retention bound into a digest — so replica state stays bounded
    however long the log grows.

    Nonuniform consensus is the right tool when clients only talk to
    live replicas: a replica that crashes may have applied a divergent
    command to its copy, but no two live replicas ever diverge — and
    the detector this needs, [(Omega, Sigma-nu)], is strictly weaker
    than what uniform replication requires when half the replicas can
    fail. *)

val noop : Consensus.Value.t
(** The command ([-1]) decided by a slot whose winning proposal was
    the empty batch. *)

(** Packing a batch of commands into one consensus value, so per-slot
    batching needs no change to the consensus layer ([Value.t] stays
    [int]). *)
module Batch : sig
  val max_command : int
  (** Commands must lie in [[0, max_command]] ([2^14 - 1]) to be
      batchable. Unbatched replication ([batch = 1]) has no such
      limit: values travel raw. *)

  val max_len : int
  (** At most this many commands per batch (4). *)

  val encode : Consensus.Value.t list -> Consensus.Value.t
  (** [encode []] is {!noop}.
      @raise Invalid_argument on an over-long batch or an
      out-of-range command. *)

  val decode : Consensus.Value.t -> Consensus.Value.t list
  (** Left inverse of {!encode}; [decode noop = []]. *)
end

(** Replication throughput/footprint knobs, fixed per functor
    application so every replica of a system agrees on them (the
    exactly-once filter and the compaction schedule must be identical
    everywhere for live logs to stay comparable). *)
module type TUNING = sig
  val batch : int
  (** Commands packed per slot proposal, in [[1, Batch.max_len]].
      With [batch = 1] proposals travel raw (no encoding). *)

  val pipeline : int
  (** Consensus instances kept open ahead of the first undecided
      slot, [>= 1]. *)

  val window : int
  (** Own-command in-flight cap: at most this many of the replica's
      commands may sit in undecided proposals at once — the
      closed-loop client window of the load driver. *)

  val retain : int
  (** Applied-log slots kept in state; older slots are compacted
      away into [snapshot_digest]/[log_base]. *)

  val horizon : int
  (** Fallback retirement depth and lag bound, [>= pipeline]. Every
      slot message carries its sender's first undecided slot, and an
      instance is retired as soon as all n replicas have reported
      deciding its slot. A crashed or starved replica freezes that
      report, so an instance decided locally is also dropped once it
      falls [horizon] slots behind. Messages for slots further than
      [horizon] ahead are refused, and a refused message is lost for
      good: the consensus instance sends each round's messages once.
      A replica more than [horizon] slots behind every peer can no
      longer assemble quorums for its next slot, so the horizon
      bounds the tolerated lag. *)
end

val check_tuning : (module TUNING) -> (unit, string) result
(** [Ok ()] when {!Make_tuned} accepts the tuning, else the message
    it would raise. *)

module Defaults : TUNING
(** [batch 1, pipeline 1, window unbounded, retain unbounded,
    horizon 64] — the backwards-compatible configuration of
    {!Make}. *)

(** A replicated log. *)
module type S = sig
  type message
  (** Slot-tagged per-instance messages, plus command forwarding. *)

  include
    Sim.Automaton.S
      with type input = Consensus.Value.t list
       and type message := message
  (** [input] is the replica's queue of pending commands (the
      commands its own clients submit), proposed in batches as slots
      open; the empty batch ({!noop}) once exhausted or while the
      in-flight window is full. *)

  val log : state -> Consensus.Value.t list
  (** The retained applied suffix, flattened in slot order: slots
      [log_base .. log_base + length (batches st) - 1]. With
      unbounded retention this is the full applied prefix. A slot
      whose batch applied no fresh command contributes one {!noop}
      entry. *)

  val batches : state -> Consensus.Value.t list list
  (** The retained applied suffix, one batch per slot, oldest
      first. *)

  val log_base : state -> int
  (** Slots compacted away below the retained suffix (0 without
      compaction). *)

  val snapshot_digest : state -> int
  (** Order-sensitive digest of the compacted prefix: two replicas
      with equal [log_base] must have equal digests. *)

  val log_digest : state -> int
  (** Full-log digest: the left fold of {!Snapshot.mix} over every
      stored batch, compacted or retained, a {!noop} slot included —
      so {!snapshot_digest} folded over {!batches}. A running field,
      updated as each slot is applied: the log-mode read is O(1).
      Equal to [(snapshot st ~tick).digest] for any [tick]. *)

  val snapshot : state -> tick:int -> Snapshot.t
  (** Freeze the applied log into an immutable read snapshot
      ([version] = {!slots_decided}, [digest] = {!log_digest}),
      stamped with the build tick. No digest fold; listing the
      retained batches is [O(retained)], and the batches themselves
      are shared, not copied. *)

  val slots_decided : state -> int
  (** Slots this replica has decided and applied — O(1) and immune
      to compaction (the count of a truncated list would not be). *)

  val commands_applied : state -> int
  (** Non-{!noop} commands applied, across all decided slots. O(1). *)

  val open_instances : state -> int
  (** Live consensus instances: the slots from the lowest slot some
      replica has not yet reported deciding through the pipeline
      window — a handful while every replica keeps up, never more
      than [horizon] behind plus the window. *)

  val pp_message : Format.formatter -> message -> unit
  val equal_message : message -> message -> bool
end

module Make_tuned (_ : TUNING) (_ : Consensus.Spec.S) : S
(** Build a replicated log over any consensus automaton, with
    explicit tuning. The ambient failure-detector value is passed
    through to every instance (and consulted for the current
    leader when forwarding).
    @raise Invalid_argument at application time on invalid tuning. *)

module Make (_ : Consensus.Spec.S) : S
(** [Make_tuned (Defaults)]. *)

module Over_anuc : S
(** SMR over [A_nuc] — drive it with an [(Omega, Sigma-nu+)] history. *)

module Over_stack : S
(** SMR over the full Theorem 6.28 stack: every slot runs its own
    [T_{Sigma-nu -> Sigma-nu+}] emulation and [A_nuc] — replication
    from the raw weakest detector [(Omega, Sigma-nu)]. Substantially
    heavier than {!Over_anuc} (one DAG gossip per open slot); meant to
    demonstrate composability, not throughput. *)
