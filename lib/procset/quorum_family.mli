(** Pluggable quorum families.

    The paper's separation result (Section 7) rests on quorum
    {e intersection structure} — Sigma's pairwise intersection versus
    Sigma-nu's weaker, correct-only guarantee — not on any particular
    threshold. This module makes the quorum structure a first-class
    value: a family decides which process sets count as quorums of a
    universe of size [n], and the detector oracles ([Fd.Oracle]), the
    quorum-driven consensus algorithms ([Consensus.Mr], [Core.Anuc])
    and the model-checking menus ([Mc.Menu]) are parameterized over
    it. Classic majority is one instance among four.

    Every shipped family is {e monotone}: a superset of a quorum is a
    quorum. The oracles rely on this (Sigma-nu+ adds the owner to its
    quorums), and so does {!validate}'s liveness test.

    The intersection algebra each consumer needs is pinned by the
    qcheck law suite in [test/test_procset.ml]:
    any-two-quorums-intersect (all four shipped families are uniform,
    so Sigma legality holds), min-quorum minimality, monotonicity, and
    the degeneracy laws (all-ones weighted votes = majority; 1xN and
    Nx1 grids = unanimity). *)

(** A quorum family, as a first-class module. [is_quorum] is the
    primitive — grid quorums are a coterie with no single threshold,
    so families are predicates, not weights. *)
module type S = sig
  val name : string
  (** Rendered name, including parameters — e.g. ["super:1"],
      ["grid:2x2"]. *)

  val shape : n:int -> (unit, string) result
  (** Structural validity of the family's parameters at universe size
      [n] (e.g. a weight vector must have length [n]; a grid must
      tile [n] exactly — a ragged grid breaks the row-column
      intersection argument). *)

  val is_quorum : n:int -> Pset.t -> bool
  (** Whether the set is a quorum of the [n]-process universe. Only
      meaningful when [shape ~n] holds. Must be monotone. *)
end

type t = (module S)

(** Typed validation errors ({!validate}), returned where an
    [Invalid_argument] would otherwise escape to the CLI. *)
type error =
  | Bad_shape of { family : string; n : int; reason : string }
      (** The family's parameters do not fit a universe of size [n]. *)
  | No_live_quorum of { family : string; n : int; live : Pset.t }
      (** No quorum survives inside [live] — the family cannot be a
          live quorum source (e.g. majority with a minority of correct
          processes). *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val name : t -> string
val pp : Format.formatter -> t -> unit

val validate : t -> n:int -> live:Pset.t -> (unit, error) result
(** [validate f ~n ~live] certifies that the family is usable as a
    quorum source for universe size [n] when the processes of [live]
    stay up: the shape fits, and some quorum is contained in [live]
    (by monotonicity, iff [live] itself is a quorum). Pass
    [live = Pset.full ~n] for a pure shape check. *)

val is_quorum : t -> n:int -> Pset.t -> bool

val is_min_quorum : t -> n:int -> Pset.t -> bool
(** A quorum none of whose proper subsets is a quorum (equivalently,
    for any family: removing any single member breaks it). *)

val min_quorums : t -> n:int -> within:Pset.t -> Pset.t list
(** All minimal quorums contained in [within], sorted by cardinality
    then {!Pset.compare}. Enumerates the [2^|within|] subsets — small
    universes only (the model-checking menus and the law suite). *)

val min_quorum_size : t -> n:int -> int option
(** Cardinality of the smallest quorum of the full universe; [None]
    when the family has no quorum at all. *)

val resilience : t -> n:int -> int
(** The largest [f] such that {e every} crash set of size [f] leaves
    a quorum intact ([-1] when even the full universe is no quorum) —
    the structural resilience column of the B13 trade-off table. *)

val grow_quorum : t -> n:int -> Draw.t -> pool:Pset.t -> Pset.t option
(** Grow a quorum by drawing uniformly random members of [pool]
    without replacement until the accumulated set is a quorum; [None]
    if [pool] is exhausted first. Each added member costs one
    {!Draw.int}, so the result is a pure function of the stream's
    key. *)

(** {1 The shipped instances} *)

val majority : t
(** Classic majority: [2 * |s| > n]. *)

val supermajority : f:int -> t
(** Fast/supermajority threshold [ceil ((n + f + 1) / 2)]: two
    quorums intersect in more than [f] processes, so the intersection
    survives [f] further crashes — the fast-quorum regime. [shape]
    requires [0 <= f] and the threshold to fit in [n]. *)

val weighted : weights:int list -> t
(** Strict weighted majority: [2 * weight s > total]. [shape]
    requires [length weights = n], all weights non-negative, total
    positive. With all-ones weights this is exactly {!majority} (the
    degenerate case pinned by the law suite). *)

val grid : ?rows:int -> ?cols:int -> unit -> t
(** Grid coterie on an [rows x cols] tiling of the universe (process
    [p] sits at row [p / cols], column [p mod cols]): a quorum must
    contain a full row and a full column, so two quorums meet at the
    crossing cell. Omitted dimensions are derived from [n] at use
    time (the most square tiling); [shape] rejects ragged grids
    ([rows * cols <> n]), whose quorums need not intersect. *)

val of_string : string -> (t, string) result
(** Parse a [--quorum] spelling: ["majority"], ["super:F"],
    ["weighted:W0,W1,..."], ["grid"] or ["grid:RxC"]. *)

val spellings : string
(** One-line help text for {!of_string}. *)
