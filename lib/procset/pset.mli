(** Sets of processes, represented as bitsets.

    Quorums, failure-detector outputs, participant sets and
    correct/faulty sets are all subsets of [Pi = {0..n-1}]. With
    [n <= 62] a set fits in one OCaml [int], which makes the
    intersection tests at the heart of the paper (Sigma's quorum
    intersection, A_nuc's distrust computation) a single [land]. *)

type t
(** An immutable set of process identifiers. *)

val max_size : int
(** Maximum supported universe size (62 on 64-bit platforms). *)

val empty : t
(** The empty set. *)

val full : n:int -> t
(** [full ~n] is [Pi = {0, ..., n-1}]. Raises [Invalid_argument] if
    [n < 0] or [n > max_size]. *)

val singleton : Pid.t -> t
(** [singleton p] is [{p}]. Raises [Invalid_argument] if [p] is
    negative or at least {!max_size}. *)

val mem : Pid.t -> t -> bool
(** [mem p s] is [true] iff [p] is in [s]. *)

val add : Pid.t -> t -> t
(** [add p s] is [s ∪ {p}]. *)

val remove : Pid.t -> t -> t
(** [remove p s] is [s - {p}]. *)

val union : t -> t -> t
(** Set union. *)

val inter : t -> t -> t
(** Set intersection. *)

val diff : t -> t -> t
(** [diff s s'] is [s - s']. *)

val is_empty : t -> bool
(** [is_empty s] is [true] iff [s] has no element. *)

val intersects : t -> t -> bool
(** [intersects s s'] is [true] iff [s ∩ s' <> ∅] — the intersection
    test of the Sigma family of failure detectors. *)

val disjoint : t -> t -> bool
(** [disjoint s s'] is [not (intersects s s')]. *)

val subset : t -> t -> bool
(** [subset s s'] is [true] iff [s ⊆ s']. *)

val equal : t -> t -> bool
(** Set equality. *)

val compare : t -> t -> int
(** A total order on sets (used to store sets of quorums). *)

val cardinal : t -> int
(** Number of elements. *)

val elements : t -> Pid.t list
(** Elements in increasing order. *)

val of_list : Pid.t list -> t
(** [of_list ps] is the set of all elements of [ps]. *)

val fold : (Pid.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f s init] folds [f] over the elements of [s] in increasing
    order. *)

val iter : (Pid.t -> unit) -> t -> unit
(** [iter f s] applies [f] to each element in increasing order. *)

val for_all : (Pid.t -> bool) -> t -> bool
(** [for_all pred s] is [true] iff every element satisfies [pred]. *)

val exists : (Pid.t -> bool) -> t -> bool
(** [exists pred s] is [true] iff some element satisfies [pred]. *)

val filter : (Pid.t -> bool) -> t -> t
(** [filter pred s] keeps the elements of [s] satisfying [pred]. *)

val min_elt : t -> Pid.t
(** Smallest element; raises [Not_found] on the empty set. This is
    the [min(A)] used in the two-run construction of Theorem 7.1. *)

val is_majority : n:int -> t -> bool
(** [is_majority ~n s] is [true] iff [2 * cardinal s > n]. *)

val complement : n:int -> t -> t
(** [complement ~n s] is [Pi - s] for the universe of size [n]. *)

val random_subset : Draw.t -> t -> t
(** [random_subset g s] draws a uniformly random subset of [s]
    (possibly empty) from one draw of [g]: [s] masked by the draw's 62
    bits, so each member is in with probability 1/2, independently. *)

val subsets : t -> t list
(** All subsets of [s] (2^|s| of them) — used by exhaustive tests for
    small universes. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{p0, p2, p5}]. *)

val to_string : t -> string
(** Same rendering as {!pp}. *)
