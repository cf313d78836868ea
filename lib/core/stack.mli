(** The composed stack of Theorem 6.28: nonuniform consensus from
    [(Omega, Sigma-nu)].

    Runs [T_{Sigma-nu -> Sigma-nu+}] (Fig. 3) and [A_nuc] (Figs. 4–5)
    concurrently in one automaton: each step performs one step of each
    component. The transformation consumes the raw Sigma-nu component
    of the ambient failure detector; [A_nuc] consumes the ambient
    Omega component paired with the {e emulated} Sigma-nu+ output. A
    received message is dispatched to the component it belongs to (the
    other component receives the empty message in that step).

    Each step expects the failure-detector value
    [Pair (Leader l, Quorum q)] with the quorum component satisfying
    only Sigma-nu. *)

type message = Gossip of Dagsim.Dag.t | Cons of Anuc.message

include Consensus.Spec.S with type message := message

val emulated_quorum : state -> Procset.Pset.t
(** The Sigma-nu+ quorum currently emulated by the transformation
    layer — what [A_nuc] sees as its quorum module. *)
