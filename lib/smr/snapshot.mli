(** Versioned, immutable read snapshots of a replicated log, and the
    lock-free store that serves them.

    A {!t} freezes what the read path serves — the decided-slot count,
    the applied-command count, and the {e full-log digest} (the left
    fold of {!mix} over every stored batch, compacted or retained,
    which {!Smr} keeps as a running field) — as plain immutable
    fields. Building one is O(1): the digest is copied, not folded.

    What a snapshot gives is an immutable view: once published it
    never changes, so any domain can read it through the {!Store}
    without touching the live replica state that the stepping domain
    owns. It is not a faster read — a log-mode read of the live
    running digest is O(1) too. The price of the view is staleness,
    measured in decided slots: a snapshot at [version] [v] read while
    the live replica has decided [d] slots is [d - v] stale. A
    publisher that re-publishes whenever the live replica has advanced
    [publish_every] slots past the stored version — and does so before
    serving the boundary's reads — bounds every read's staleness by
    [publish_every - 1] (DESIGN.md §5i). *)

type t = {
  version : int;  (** slots decided when the snapshot was built *)
  base : int;  (** compaction base: slots digested below the suffix *)
  ops : int;  (** non-noop commands applied *)
  digest : int;
      (** full-log digest — {!Smr.S.log_digest} of the state it was
          built from *)
  log_len : int;  (** retained slots represented ([version - base]) *)
  batches : Consensus.Value.t list list;
      (** the retained suffix at build time, one batch per slot,
          oldest first — shared immutable structure, not a copy *)
  built_at : int;  (** logical tick of the build *)
}

val mix : int -> int -> int
(** The digest step of both of {!Smr}'s running digests, the
    compacted prefix and the full log:
    [mix h c = (h * 1000003) lxor c]. *)

val build :
  version:int ->
  base:int ->
  ops:int ->
  digest:int ->
  batches:Consensus.Value.t list list ->
  tick:int ->
  t
(** Assemble a snapshot from values the replica already holds: no
    fold, O(1). [log_len] is [version - base]; [tick] becomes
    [built_at]. *)

(** One-cell snapshot store with a lock-free keep-newest swap: any
    number of reading domains, any number of publishing domains. *)
module Store : sig
  type snapshot = t
  type t

  val make : unit -> t
  (** Empty store — {!current} is [None] until the first publish. *)

  val publish : t -> snapshot -> bool
  (** Swap in the snapshot iff it is strictly newer (by [version])
      than the stored one — a CAS loop, never a lock. Returns whether
      the swap happened; a concurrent publish of an even newer
      snapshot wins, and losing is not an error. *)

  val current : t -> snapshot option
  (** The newest published snapshot: one atomic load. *)

  val published : t -> int
  (** Successful publishes so far. *)
end
