(** [A_nuc]: nonuniform consensus from [(Omega, Sigma-nu+)]
    (Figs. 4–5 of the paper, Theorem 6.27).

    The skeleton is the Mostéfaoui–Raynal round structure
    (LEAD / REPORT / PROPOSE), with quorums supplied by the Sigma-nu+
    component of the failure detector, hardened by two mechanisms that
    defeat contamination (Section 6.3):

    - {b distrust}: each process accumulates a quorum history [H_p]
      (its own quorums and every quorum it hears about in LEAD, PROP
      and SAW messages); [p] refuses to adopt a leader estimate from,
      or to finish a proposal-collection round containing, a process
      [q] whose known quorums miss the quorums of some process [p]
      does not itself consider faulty;
    - {b quorum awareness}: before a quorum [Q] may support a
      decision, [p] must have sent [(SAW, p, Q)] to its members and
      collected acknowledgements from all of them, tagged with rounds
      strictly below the deciding round ([seen_p[Q] < k_p]) — which
      guarantees every correct process learns [Q ∈ H[p]] by the end of
      the deciding round.

    Each step expects the failure-detector value
    [Pair (Leader l, Quorum q)] where the quorum component satisfies
    Sigma-nu+. *)

type message =
  | Lead of { round : int; est : Consensus.Value.t; hist : Qhist.t }
  | Rep of { round : int; est : Consensus.Value.t }
  | Prop of { round : int; value : Consensus.Value.t option; hist : Qhist.t }
  | Saw of { quorum : Procset.Pset.t }
  | Ack of { quorum : Procset.Pset.t; round : int }

(** The full interface of one [A_nuc] variant. *)
module type S = sig
  include Consensus.Spec.S with type message = message

  val estimate : state -> Consensus.Value.t
  (** Current estimate [x_p]. *)

  val history : state -> Qhist.t
  (** The quorum history [H_p]. *)

  val considered_faulty : self:Procset.Pid.t -> state -> Procset.Pset.t
  (** The current [F_p] (Fig. 5, line 52). *)
end

include S with type message := message
(** The algorithm of Figs. 4-5, both safety mechanisms enabled. *)

(** {2 Ablated variants}

    Strictly for the mechanism-necessity experiments: each variant
    disables one (or both) of the safety mechanisms and is therefore
    {e not} a correct nonuniform-consensus algorithm. [Without_both]
    is broken by the Section 6.3 adversary
    ({!Scenario.contamination_anuc_unsafe}). *)

module Without_distrust : S
(** Leader estimates are always adopted and proposal-collection rounds
    always complete (Fig. 4 lines 18 and 28 unguarded). *)

module Without_awareness : S
(** Decisions skip the [seen_p[Q] < k_p] gate (Fig. 4 line 30), so a
    quorum may support a decision before its members have acknowledged
    it. *)

module Without_both : S
(** Both mechanisms off — the naive Sigma-nu substitution expressed in
    the [A_nuc] skeleton. *)
