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

    The path search walks the {!Dagsim.Dag.spine} of [G_p|u_p] and
    scans its contiguous subpaths; [search_window] bounds the suffix
    of the spine considered (soundness is unaffected — any found path
    is a genuine path of [G_p|u_p]; liveness is preserved because the
    good path of Lemma 6.1 consists of fresh samples). *)

include Sim.Automaton.S with type input = unit and type message = Dagsim.Dag.t

val output : state -> Procset.Pset.t
(** The current [Sigma-nu+-output_p]. *)

val dag : state -> Dagsim.Dag.t
(** The current DAG of samples [G_p] (diagnostics). *)

val extractions : state -> int
(** How many quorums this process has output so far. *)

val search_window : int ref
(** Maximum spine suffix length scanned per extraction (default 120). *)

val extract_every : int ref
(** Run the path search only on every [k]-th step (default 2);
    intermediate steps only grow the DAG. Any positive period keeps
    the extraction attempted infinitely often, which is all liveness
    needs. *)

val prune_window : int ref
(** Per-owner sample window kept in the DAG (default 160) — see
    {!Dagsim.Adag.Core.step}. Must comfortably exceed
    [search_window]. *)
