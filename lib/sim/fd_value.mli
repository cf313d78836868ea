(** Failure-detector output values.

    The model (Section 2.3 of the paper) lets a failure detector have
    an arbitrary range [R]. This repository uses one closed universe
    of values so that the DAG-of-samples machinery (Section 4) can
    store and replay samples of {e any} detector without knowing which
    detector produced them:

    - [Leader p] — range of Omega (a single trusted process);
    - [Quorum q] — range of the Sigma family (a set of processes);
    - [Suspects s] — range of the suspicion-list detectors of
      Chandra–Toueg (P, eventually-P, eventually-S, ...);
    - [Pair (d, d')] — the product detector [(D, D')] of Section 2.3;
    - [Unit] — the trivial detector, for algorithms that use none. *)

type t =
  | Unit
  | Leader of Procset.Pid.t
  | Quorum of Procset.Pset.t
  | Suspects of Procset.Pset.t
  | Pair of t * t

val equal : t -> t -> bool
(** Structural equality. *)

val compare : t -> t -> int
(** A total order (used to deduplicate DAG samples). *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering. *)

val fst_exn : t -> t
(** First component of a [Pair]; raises [Invalid_argument] otherwise. *)

val snd_exn : t -> t
(** Second component of a [Pair]; raises [Invalid_argument] otherwise. *)
