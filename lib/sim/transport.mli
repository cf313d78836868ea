(** Message transports: the network under an automaton.

    A transport owns the in-flight messages of a system of [n]
    processes and the clock their send times are stamped with. The
    core signature {!S} is deliberately small — [send], [recv], [now]
    over {!Envelope.t} — because that is all an {!Automaton.S} step
    loop needs; everything else (scheduling policy, fault injection
    bookkeeping, trace recording) belongs to the loop driving it.

    Two instances ship:

    - {!Simulated} — the deterministic single-domain transport behind
      {!Runner.Make}. It exposes, beyond {!S}, the surgical mailbox
      operations (indexed removal, predicate removal, peeking) that
      the fair scheduler's randomized delivery and the scripted mode's
      adversarial delivery need. Every run over it is a pure function
      of its arguments.
    - {!Ring} — the lock-free multi-domain transport behind
      {!Executor.Make}: one bounded MPSC {!Sim.Ring} per destination
      (CAS producers, single consumer, lossless overflow side-queue),
      send/receive counters in atomics, and a global logical clock
      advanced by {!Ring.tick}. Same fault semantics as {!Simulated},
      reordering included, real parallelism, no determinism of
      interleaving (DESIGN.md §5e, §5i). It discards sends to
      processes its failure pattern has crashed. On one domain it is
      observationally identical to {!Simulated} for every live
      receiver; {!Simulated} is its differential-testing oracle.

    Both instances apply {!Faults} verdicts at send time from the pure
    hash of the message identity [(src, dst, seq, send time)] — never
    from a shared RNG — so the fault layer itself cannot introduce
    cross-domain nondeterminism beyond what the interleaving already
    did to [seq] and the clock. *)

(** The minimal transport interface an automaton step loop needs. *)
module type S = sig
  type 'a t

  val send : 'a t -> src:Procset.Pid.t -> (Procset.Pid.t * 'a) list -> unit
  (** Stamp, fault-filter and enqueue the payloads at their
      destinations. @raise Invalid_argument on an out-of-range pid. *)

  val recv : 'a t -> Procset.Pid.t -> 'a Envelope.t option
  (** Remove and return the oldest pending message for the process,
      [None] if its mailbox is empty. *)

  val now : 'a t -> int
  (** The transport's current logical time. *)
end

type stats = {
  sent : int;  (** logical sends (before fault filtering) *)
  dropped : int;  (** lost to drop faults or severed partition links *)
  duplicated : int;  (** extra copies enqueued by duplication faults *)
  reordered : int;  (** messages inserted ahead of queued ones *)
  delivered : int;  (** receives acknowledged via [note_delivered] *)
  discarded : int;
      (** {!Ring} sends to a destination its failure pattern has
          crashed by the send time; 0 for {!Simulated} *)
  mailbox_hwm : int;  (** deepest any single mailbox ever got *)
  lock_ops : int;
      (** mutex acquisitions on the message path: {!Ring}'s
          overflow-spill acquisitions; 0 for {!Simulated} *)
  cas_retries : int;
      (** failed/stale CAS attempts in {!Ring} producers — the
          lock-free backend's contention measure; 0 elsewhere *)
}
(** Counter snapshot, shared by all instances. The conservation law
    [sent - dropped - discarded + duplicated = delivered + pending-at-stop]
    holds whenever every delivery was acknowledged. *)

(** The deterministic transport: single-domain, mutable, owned by one
    scheduler loop. Time starts at 1 and advances only via {!tick}. *)
module Simulated : sig
  type 'a t

  val create : ?who:string -> n:int -> faults:Faults.t -> unit -> 'a t
  (** [who] names the automaton in error messages. *)

  val send : 'a t -> src:Procset.Pid.t -> (Procset.Pid.t * 'a) list -> unit
  val recv : 'a t -> Procset.Pid.t -> 'a Envelope.t option
  val now : 'a t -> int

  val tick : 'a t -> unit
  (** Advance the clock by one. The runner calls this once per step. *)

  val n : 'a t -> int

  val depth : 'a t -> Procset.Pid.t -> int
  (** Pending-message count for one process. O(1). *)

  val peek_oldest : 'a t -> Procset.Pid.t -> 'a Envelope.t option
  (** The oldest pending message, not removed. *)

  val take_nth : 'a t -> Procset.Pid.t -> int -> 'a Envelope.t
  (** Remove the pending message at FIFO index [k] (0 = oldest) — the
      fair scheduler's randomized delivery.
      @raise Invalid_argument if out of bounds. *)

  val take_first :
    'a t -> Procset.Pid.t -> ('a Envelope.t -> bool) -> 'a Envelope.t option
  (** Remove the oldest pending message satisfying the predicate —
      scripted/adversarial delivery. *)

  val note_delivered : 'a t -> unit
  (** Count one delivery (the loop, not [recv], decides what counts:
      force-delivered, randomly chosen and scripted receives all do). *)

  val pending : 'a t -> Procset.Pid.t -> 'a Envelope.t list
  (** Snapshot of one mailbox, oldest first. *)

  val undelivered : 'a t -> 'a Envelope.t list
  (** Every pending message of every process. *)

  val stats : 'a t -> stats
end

(** The lock-free transport: one bounded MPSC {!Sim.Ring} per
    destination, plus a mailbox owned by the destination's consumer.
    Sends are CAS claims on the destination ring (no mutex unless the
    ring overflows to its lossless side-queue); each ring entry carries
    its fault verdict's displacement. A receive moves every published
    entry into the mailbox, in push order, placing each [displace]
    positions short of the tail as {!Simulated} does at send time,
    then dequeues the oldest; on one domain the two transports agree
    receive for receive. Per-link FIFO (absent reordering) and the
    conservation law are preserved by construction (see ring.mli).

    A send whose destination the run's failure pattern has crashed by
    the send time is discarded (counted in [discarded]) before its
    fault verdict: a crashed process never receives again, so the
    copy could only pile up in its mailbox. It still takes its [seq]
    and counts in [sent], so every other message keeps its [seq] and
    verdict. *)
module Ring : sig
  type 'a t

  val create :
    ?who:string ->
    ?capacity:int ->
    pattern:Failure_pattern.t ->
    faults:Faults.t ->
    unit ->
    'a t
  (** A transport for the [n] processes of the run's failure
      [pattern]; sends to a process it has crashed by the send time
      are discarded. [capacity] is the per-destination ring capacity
      (default 1024, rounded up to a power of two). Every fault spec
      is accepted. Time starts at 0; the first {!tick} returns 1. *)

  val send : 'a t -> src:Procset.Pid.t -> (Procset.Pid.t * 'a) list -> unit
  (** Safe from any domain. The per-sender sequence number is drawn
      atomically. Callers stepping one process from one domain at a
      time (the executor's invariant) get per-sender FIFO [seq]
      order. @raise Invalid_argument on an out-of-range pid. *)

  val recv : 'a t -> Procset.Pid.t -> 'a Envelope.t option
  (** Only the domain currently driving process [p] may call
      [recv t p]: it is the single consumer of [p]'s ring and the only
      user of [p]'s mailbox. The executor's shard pinning guarantees
      this, and the pool's round join publishes the mailbox to the
      next round's domain. *)

  val now : 'a t -> int

  val tick : 'a t -> int
  (** Atomically advance the global clock and return the {e new} time
      — each executor step owns a distinct tick. *)

  val depth : 'a t -> Procset.Pid.t -> int
  (** Pending messages for one process: its ring and its mailbox.
      Exact on one domain; a snapshot otherwise. *)

  val note_delivered : 'a t -> unit

  val undelivered : 'a t -> 'a Envelope.t list
  (** Every pending message: per destination, the mailbox oldest
      first, then the entries not yet drained from the ring, in push
      order. Call only when no other domain is active (after a
      join). *)

  val stats : 'a t -> stats
end
