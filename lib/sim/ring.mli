(** A bounded lock-free MPSC ring buffer with a lossless overflow
    side-queue — the fast mailbox under {!Transport.Ring}.

    The ring is a power-of-two array of cells guarded by {e per-slot
    sequence numbers} (Vyukov's bounded-queue discipline, specialized
    to a single consumer): a producer claims the tail position with
    one CAS, writes its payload into the claimed cell, and {e then}
    publishes the cell by storing [position + 1] into the slot's
    sequence number; the consumer reads the head slot's sequence
    number first and touches the cell only after observing the
    published value. Every payload write is therefore ordered before
    its publication and every payload read after it, with OCaml's SC
    atomics carrying the happens-before edge — the cells themselves
    need no atomicity.

    Why ABA cannot happen here (DESIGN.md §5i): a slot's sequence
    number only ever grows — [pos] (free for the producer whose claim
    lands on [pos]), then [pos + 1] (published), then
    [pos + capacity] (consumed, free for the next lap) — and the
    single consumer is the only writer of the third transition, so no
    producer can observe a stale sequence value that aliases a future
    lap.

    When the ring is full — or whenever earlier messages are already
    waiting in the side-queue — a push falls back to a small
    mutex-guarded overflow queue instead of failing or dropping: no
    message is ever lost, so the transport conservation law
    [sent - dropped - discarded + duplicated
     = delivered + undelivered_at_stop]
    is preserved by construction. Per-producer FIFO is preserved
    across the fallback because (a) a producer's pushes are
    sequential, (b) a producer routes to the overflow queue whenever
    the queue is non-empty, and (c) the consumer serves the overflow
    queue only when the ring is completely drained — so a producer's
    ring-resident message can never be overtaken by a later message
    it diverted to the overflow queue, nor vice versa.

    Single-consumer contract: [pop], [length]'s exactness, and
    [to_list] assume one popping domain (the executor pins each
    mailbox's consumer to the domain stepping that process). Pushes
    are safe from any number of domains. *)

type 'a t

val create : capacity:int -> 'a t
(** A fresh ring holding up to [capacity] messages before pushes
    spill to the overflow queue. [capacity] is rounded up to a power
    of two, minimum 2. @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int
(** The rounded ring capacity. *)

val push : 'a t -> 'a -> unit
(** Enqueue from any domain. Lock-free while the ring has space;
    takes the overflow mutex (and counts it in {!lock_ops}) only when
    the ring is full or older messages already sit in the overflow
    queue. Never blocks on the consumer, never loses the message. *)

val pop : 'a t -> 'a option
(** Dequeue the oldest message (single consumer only). Drains the
    ring before the overflow queue — ring entries always predate
    overflow entries — and returns [None] if the mailbox is empty or
    the head claim is still being published by a slow producer (a
    transient state; the message is not lost). *)

val length : 'a t -> int
(** Pushed minus popped. Exact when no push is concurrently in
    flight; otherwise a snapshot that may lag by the in-flight
    pushes. *)

val is_empty : 'a t -> bool

val to_list : 'a t -> 'a list
(** Contents oldest-first {e per producer} (ring first, then
    overflow). Call only when no producer is active — a post-join
    drain, as {!Transport.Ring.undelivered} does. Does not modify the
    ring. *)

val cas_retries : 'a t -> int
(** Failed tail-CAS attempts plus stale-tail re-reads — the ring's
    contention counter. 0 in any single-domain run. *)

val lock_ops : 'a t -> int
(** Overflow-mutex acquisitions (push and pop sides): the ring's only
    locks, paid only on overflow. B14 reports them. *)

val overflows : 'a t -> int
(** Pushes that spilled to the overflow queue. *)
