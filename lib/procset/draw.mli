(** Counter-based pseudo-random draws keyed by [(seed, stream, p, t)].

    A failure-detector history is a function [H(p, t)] (Section 2.3),
    and the oracles of [lib/fd] compute it as a pure function of
    [(seed, p, t)]. A generator here is that key plus a draw counter:
    {!make} hashes the key once, and draw [i] is one more splitmix64
    step of [key + i * gamma]. No state is shared between keys, so any
    domain may draw any key in any order and get the same words.

    [stream] separates use sites: two sites keyed at the same
    [(seed, p, t)] but with different streams read unrelated words, so
    a leader drawn as [word mod n] and a quorum drawn as [pool land
    word] do not share low bits. *)

type t
(** A stream keyed by [(seed, stream, p, t)], with the index of its
    next draw. Mutable: each draw advances it. *)

val make : stream:int -> int -> Pid.t -> int -> t
(** [make ~stream seed p t] is a fresh stream whose next draw is draw
    0. *)

val bits : t -> int
(** The next draw: 62 uniform bits, in [\[0, 2^62)]. *)

val int : t -> int -> int
(** [int g bound] is the next draw reduced modulo [bound], in
    [\[0, bound)]; the bias is below [bound / 2^62]. Raises
    [Invalid_argument] unless [bound > 0]. *)
