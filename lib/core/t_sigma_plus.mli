(** [T_{Sigma-nu -> Sigma-nu+}]: boosting Sigma-nu to Sigma-nu+
    (Fig. 3 of the paper, Theorem 6.7).

    Each process runs [A_DAG] sampling its Sigma-nu module, and
    maintains a freshness barrier [u_p] (its own most recent sample at
    the time of its last output). To produce a new quorum it looks for
    a path [g] in [G_p|u_p] such that

    - [trusted(g) ⊆ participants(g)]: every quorum sampled along the
      path is covered by the processes taking samples on it, and
    - [p ∈ participants(g)],

    and outputs [participants(g)]. The emulated variable starts at
    [Pi].

    Each step expects the failure-detector value [Quorum q] (the
    Sigma-nu module being sampled). The emulated Sigma-nu+ value is
    exposed by {!output}.

    Steps, barrier and gossip are {!Dagsim.Adag.Emulator}'s. Every
    second step the search scans the contiguous subpaths of the last
    120 nodes of {!Dagsim.Dag.weave} of [G_p|u_p]: any path found is a
    path of [G_p|u_p], and the good path of Lemma 6.1 consists of
    fresh samples. Each owner keeps its last 160 samples in [G_p]. *)

include Dagsim.Adag.TRANSFORMATION
