(** DAGs of failure-detector samples (Section 4.1).

    The DAG built by algorithm [A_DAG] has a special shape: whenever a
    process adds a new sample it adds edges {e from every node it
    currently knows} to the new node (Fig. 1, line 10), and DAGs are
    exchanged and unioned wholesale. Consequently a node's in-edge set
    equals its full ancestor set, the edge relation is transitively
    closed, and a node's ancestor set is identical in every copy of
    the DAG it appears in. This module exploits that invariant: a DAG
    is a map from node identity to (node, ancestor set), so

    - [union] is a pointwise map union (gossip is cheap),
    - [has_edge u v] is an ancestor-set membership test, and
    - [restrict g v] (the paper's [G|v]) is a filter.

    Paths of the DAG (sequences of nodes linked by edges) feed the
    simulated schedules of Section 4.2; {!spine} extracts a long path
    greedily, which implements the constructive core of Lemma 4.8. *)

type t
(** An immutable DAG of samples. *)

val empty : t
(** The empty graph. *)

val is_empty : t -> bool
(** [true] iff the graph has no nodes. *)

val size : t -> int
(** Number of nodes. *)

val mem : t -> Node.t -> bool
(** Membership by node identity. *)

val find : t -> Node.key -> Node.t option
(** Look a node up by identity. *)

val add_sample : t -> Node.t -> t
(** [add_sample g v] adds node [v] with edges from every node of [g]
    to [v] — exactly lines 9–10 of Fig. 1. Raises [Invalid_argument]
    if a node with [v]'s identity is already present. *)

val union : t -> t -> t
(** Union of two DAGs (nodes and edges) — the [G_p ∪ m] of Fig. 1
    line 7. *)

val has_edge : t -> Node.t -> Node.t -> bool
(** [has_edge g u v] is [true] iff [(u, v)] is an edge, i.e. [u] is an
    ancestor of [v]. *)

val is_descendant : t -> of_:Node.t -> Node.t -> bool
(** [is_descendant g ~of_:u v]: [v] is [u] itself or has [u] among its
    ancestors. *)

val restrict : t -> Node.t -> t
(** [restrict g v] is [G|v]: the subgraph induced by [v] and its
    descendants. Returns {!empty} if [v] is not a node of [g]. *)

val nodes : t -> Node.t list
(** All nodes, sorted by identity. *)

val prune : window:int -> t -> t
(** [prune ~window g] drops every sample more than [window] indices
    behind its owner's newest sample in [g]. Ancestor sets keep their
    (now dangling) references to dropped nodes; {!has_edge} and
    {!spine} only consider present nodes, and the A_DAG invariants are
    preserved on the remaining graph. Used by the transformation
    algorithms to bound state growth — see {!Adag.Core.step}. *)

val samples_of : t -> Procset.Pid.t -> Node.t list
(** The samples of one process, sorted by index. *)

val ancestor_count : t -> Node.t -> int
(** Number of ancestors of a node within the graph. *)

val spine : t -> from:Node.t -> Node.t list
(** [spine g ~from:u] is a {e longest} path of [G|u], computed exactly
    by dynamic programming over the topological order: under the A_DAG
    invariant every ancestor of a node has a direct edge to it, so the
    longest path ending at [v] extends the longest path ending at any
    ancestor of [v] inside [G|u]. Returns [[]] if [u] is not in
    [g]. *)

val weave : ?block:int -> t -> from:Node.t -> Node.t list
(** [weave g ~from:u] is a path of [G|u] built the way Lemma 4.8
    builds its infinite path: starting at [u], repeatedly append the
    earliest unused sample of the next owner in rotation that the
    current path end has an edge to, skipping owners with no such
    sample. The result visits every owner that keeps taking samples
    reachable from [u] — the shape the emulations of Figs. 2–3 need —
    whereas {!spine} maximizes length (and in gossip DAGs degenerates
    to one owner's chain, since switching owners forfeits the gossip
    lag). [block] (default 1) takes that many consecutive samples of
    each owner before rotating, trading owner-alternation granularity
    for path length. *)

val is_path : t -> Node.t list -> bool
(** [is_path g ns] checks that consecutive elements of [ns] are linked
    by edges of [g] (a single node is a path; the empty list is not). *)

val pp : Format.formatter -> t -> unit
(** Diagnostic summary (node and edge counts). *)
