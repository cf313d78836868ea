(** [T_{D -> Sigma-nu}]: extracting Sigma-nu from any failure detector
    that can be used to solve nonuniform consensus (Fig. 2 of the
    paper, Theorem 5.4).

    Parametric in the consensus algorithm [A] that uses [D], any
    {!Consensus.Spec.S}: each process runs [A_DAG] sampling its [D]
    module, and periodically simulates schedules of [A] over its DAG
    of samples. When it finds
    a schedule from the all-zeros initial configuration [I_0] and one
    from the all-ones configuration [I_1] — both drawn from
    [G_p|u_p], with [u_p] the freshness barrier — in which it decides,
    it outputs the union of their participant sets as a Sigma-nu
    quorum. The proof of Lemma 5.3 is exactly the merging argument:
    two disjoint such quorums at correct processes would merge into a
    run of [A] violating nonuniform agreement.

    The same algorithm extracts full Sigma when [A] solves {e uniform}
    consensus (Theorem 5.8): experiment E2 checks the uniform
    intersection property on the very same emulated outputs.

    Steps, barrier and gossip are {!Dagsim.Adag.Emulator}'s. Every
    fourth step the first 400 nodes of {!Dagsim.Dag.weave} of
    [G_p|u_p], four samples per owner in turn, are simulated with
    oldest-message-first delivery (Lemma 4.10's admissible schedule,
    {!Dagsim.Path_sim}), and the first deciding prefix is used. Each
    owner keeps its last 320 samples, more than the path holds. *)

module Make (A : Consensus.Spec.S) : Dagsim.Adag.TRANSFORMATION
