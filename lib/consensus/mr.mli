(** The Mostéfaoui–Raynal leader-based consensus algorithm and its
    quorum-driven generalization (Section 6.3 of the paper, after
    [MR01]).

    Processes run asynchronous rounds of three phases. Phase 1: send a
    LEAD message with the current estimate, wait for the LEAD message
    of the process currently output by Omega and adopt its estimate.
    Phase 2: send a REPORT, collect reports from a {e quorum}; if they
    unanimously carry [v], the phase-3 proposal is [v], otherwise "?".
    Phase 3: send the proposal, collect proposals from a quorum; adopt
    any non-"?" value seen and decide if the quorum unanimously
    proposed a non-"?" value.

    The instances differ only in what "quorum" means:

    - {!family} waits for any set of senders that is a quorum of the
      given {!Procset.Quorum_family};
    - {!Majority} is its majority-family instance under its own name:
      the original [MR01] algorithm, correct for uniform consensus
      when a majority of processes are correct;
    - {!With_quorum} waits for all members of the set currently output
      by the quorum component of its failure detector, re-read at
      every step. Driven by a Sigma oracle this solves uniform
      consensus in any environment (footnote 5 of the paper). Driven
      by a Sigma-nu oracle it is exactly the {e naive substitution}
      whose contamination scenario (Section 6.3) motivates [A_nuc] —
      and our experiment E6 exhibits its nonuniform-agreement
      violation.

    The failure detector value supplied to each step must be
    [Leader l] or [Pair (Leader l, Quorum q)]; {!With_quorum} requires
    the pair form. *)

type message =
  | Lead of { round : int; est : Value.t }
  | Rep of { round : int; est : Value.t }
  | Prop of { round : int; value : Value.t option }

val pp_message : Format.formatter -> message -> unit
val equal_message : message -> message -> bool

(** Observable position of a process inside its round (used by
    scripted adversaries to time oracle changes). *)
type phase_view = Phase_start | Phase_lead | Phase_rep | Phase_prop

module type S = sig
  include Spec.S with type message = message

  val round : state -> int
  (** The current round number [k_p]. *)

  val estimate : state -> Value.t
  (** The current estimate [x_p]. *)

  val phase : state -> phase_view
  (** Which wait the process is currently in. *)
end

module Majority : S
(** Quorums are majorities of [Pi]: [family Quorum_family.majority],
    named ["MR-majority"]. *)

module With_quorum : S
(** Quorums are read from the failure detector at every step. *)

val family : Procset.Quorum_family.t -> (module S)
(** MR over an arbitrary quorum family: each wait is satisfied by any
    set of distinct senders that [is_quorum], and the decision rule
    requires a family quorum of identical non-"?" proposals.
    Uniform agreement needs the family's pairwise intersection law
    (any two quorums meet in a process that reported/proposed a single
    value per round) — the law the qcheck suite pins for every shipped
    family. [family Quorum_family.majority] is {!Majority} under the
    name ["MR[majority]"]. *)
