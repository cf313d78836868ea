(** Quorum histories — the [H_p] variables of [A_nuc] (Figs. 4–5).

    [H_p] maps each process [r] to the set of quorums that [p] knows
    were output at [r] by its failure detector. Histories travel
    inside LEAD and PROP messages and are merged pointwise by
    [import_history] (Fig. 5, lines 44–46). *)

type t
(** An immutable quorum history. *)

val empty : t
(** [H_p[q] = ∅] for all [q] — the initialize clause. *)

val get : t -> Procset.Pid.t -> Procset.Qset.t
(** [get h r] is [H_p[r]]. *)

val add : t -> Procset.Pid.t -> Procset.Pset.t -> t
(** [add h r q] is [h] with [H_p[r] := H_p[r] ∪ {q}]. *)

val knows : t -> Procset.Pid.t -> Procset.Pset.t -> bool
(** [knows h r q] is [true] iff [q ∈ H_p[r]]. *)

val import : t -> t -> t
(** [import h h'] is the pointwise union — [import_history]. *)

val considered_faulty : self:Procset.Pid.t -> t -> Procset.Pset.t
(** The set [F_p] computed on Fig. 5, line 52: processes [q'] such
    that some quorum in [H_p[q']] is disjoint from some quorum in
    [H_p[self]].

    The disjoint-pair test behind it and {!distrusts_any} takes a
    shortcut that gives the same answer. Let [common qs] be the
    processes in every quorum of [qs] (every process when [qs] is
    empty). If [common a] and [common b] share a process, that process
    is in both quorums of every pair, so no pair of [a × b] is
    disjoint; only otherwise are the pairs scanned
    ({!Procset.Qset.exists_disjoint_pair}). Every Σν+ quorum of a
    correct process contains the pivot, so in a crash-free run the
    commons always meet and no pair is ever scanned. *)

val distrusts_any :
  self:Procset.Pid.t -> n:int -> t -> Procset.Pset.t -> bool
(** [distrusts_any ~self ~n h s] is [true] iff [p = self] distrusts
    some member of [s] — the until-clause of Fig. 4, line 28, asked
    once for the whole quorum. Members with [H_p[q] = ∅] are skipped
    first. For each other member it walks the bound entries [r < n]
    of [h] (an unbound [r] has [H_p[r] = ∅] and conflicts with
    nothing), and computes [F_p] at most once per call, and only once
    a conflicting pair has been found. When every pair of commons
    meets, a call costs [O(|s| · Σ_r |H_p[r]|)] intersections and
    scans no pair of quorums. *)

val distrusts : self:Procset.Pid.t -> n:int -> t -> Procset.Pid.t -> bool
(** The [distrusts] function (Fig. 5, lines 51–53): [p] distrusts [q]
    iff there is a process [r] outside [F_p] such that [H_p[q]] and
    [H_p[r]] contain nonintersecting quorums. The singleton case of
    {!distrusts_any}. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
