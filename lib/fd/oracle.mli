(** Failure-detector oracles: history generators.

    An oracle produces, for a given failure pattern [F], one history
    [H ∈ D(F)] of a detector [D], presented as a deterministic query
    function [H(p, t)]. Constructions are by-design correct (each
    documents why it satisfies its detector's specification) and every
    oracle is additionally re-validated by the independent checkers of
    {!Check} in the test suite.

    All oracles are deterministic functions of [(seed, p, t)], so runs
    using them are reproducible and any domain may query them. A query
    draws from {!Procset.Draw} streams keyed by [(seed, p, t)], one
    stream per use site (the pre-stabilization leader, the pivot,
    faulty and family quorums, Sigma-nu+'s faulty-branch coin and
    [<>S]'s suspicions), so oracles queried together, as in
    [pair omega sigma_nu_plus], read unrelated words. Everything that
    depends only on the failure pattern (pivot, correct and faulty
    sets, the stable Omega value) is computed once, when the oracle is
    built. Each oracle declares a stabilization time [stab_time]:
    after it, the "eventually" clauses of its detector hold
    permanently. It is always at least one tick past the pattern's
    last crash. *)

type t = {
  name : string;
  query : Procset.Pid.t -> int -> Sim.Fd_value.t;  (** [H(p, t)] *)
  stab_time : int;
      (** all "eventually" clauses hold from this time onwards *)
}

val of_fun :
  name:string ->
  stab_time:int ->
  (Procset.Pid.t -> int -> Sim.Fd_value.t) ->
  t
(** Wrap an arbitrary query function. *)

val history : horizon:int -> n:int -> t -> History.t
(** Densely sample the oracle up to [horizon]. *)

(** Pre-stabilization behaviour of {!omega}. *)
type omega_prestab =
  | Omega_random  (** trust pseudo-random processes before stabilizing *)
  | Omega_faulty_first
      (** trust the highest faulty process before stabilizing (the
          adversarial behaviour behind the contamination scenario of
          Section 6.3); falls back to the leader if no process is
          faulty *)

val omega :
  ?seed:int -> ?stab_time:int -> ?prestab:omega_prestab ->
  Sim.Failure_pattern.t -> t
(** The leader detector. After stabilization every process trusts the
    smallest correct process. [stab_time] is clamped to be after the
    last crash. Raises [Invalid_argument] if no process is correct;
    the other pivot-anchored oracles raise it at their first query
    that needs the pivot. *)

val sigma : ?seed:int -> ?stab_time:int -> Sim.Failure_pattern.t -> t
(** The quorum detector Sigma, pivot construction: every quorum output
    anywhere, at any time, contains the smallest correct process, so
    any two intersect; after stabilization the quorums of correct
    processes are subsets of [correct(F)] containing the pivot. *)

val sigma_family :
  ?seed:int ->
  ?stab_time:int ->
  Procset.Quorum_family.t ->
  Sim.Failure_pattern.t ->
  (t, Procset.Quorum_family.error) result
(** Sigma over an arbitrary {!Procset.Quorum_family}: every quorum
    output anywhere is a family quorum (any two intersect — the
    uniform intersection law of the family algebra); after
    stabilization the quorums of correct processes are grown inside
    [correct(F)]. Returns the typed {!Procset.Quorum_family.error}
    when the family's shape does not fit [n] or no quorum survives in
    [correct(F)]. With {!Procset.Quorum_family.majority} every quorum
    is a majority of [Pi], and after stabilization the quorums of
    correct processes are majorities of correct processes, which
    needs a correct majority; this mirrors the from-scratch
    construction of Theorem 7.1 (IF). *)

(** Behaviour of faulty processes' quorums under Sigma-nu family
    oracles — the clause Sigma-nu leaves unconstrained. *)
type faulty_mode =
  | Faulty_arbitrary
      (** pseudo-random subsets of [Pi], occasionally empty: anything
          goes *)
  | Faulty_split
      (** subsets of [faulty(F)] only — maximally disjoint from the
          correct side; this is the adversary of the contamination
          scenario (Section 6.3) and of Theorem 7.1 (ONLY IF) *)

val sigma_nu :
  ?seed:int -> ?stab_time:int -> ?faulty_mode:faulty_mode ->
  Sim.Failure_pattern.t -> t
(** The nonuniform quorum detector Sigma-nu: correct processes use the
    pivot construction of {!sigma}; faulty processes behave per
    [faulty_mode] (default [Faulty_arbitrary]). *)

val sigma_nu_plus :
  ?seed:int -> ?stab_time:int -> ?faulty_mode:faulty_mode ->
  Sim.Failure_pattern.t -> t
(** Sigma-nu+ (Section 6.1): like {!sigma_nu} but additionally
    self-including (every quorum contains its owner), and quorums of
    faulty processes either contain the pivot (hence intersect all
    correct quorums) or consist of faulty processes only (satisfying
    conditional nonintersection). With [Faulty_split], faulty
    processes always take the faulty-only branch when [faulty(F)] is
    nonempty. *)

val sigma_nu_family :
  ?seed:int ->
  ?stab_time:int ->
  Procset.Quorum_family.t ->
  Sim.Failure_pattern.t ->
  (t, Procset.Quorum_family.error) result
(** Sigma-nu over a quorum family: correct processes output family
    quorums (inside [correct(F)] after stabilization), which pairwise
    intersect by the family's uniform intersection law — so the
    correct-only clause of Sigma-nu holds a fortiori; faulty
    processes take the [Faulty_split] escape (subsets of [faulty(F)]
    around themselves), which Sigma-nu leaves unconstrained. Typed
    error as for {!sigma_family}. *)

val sigma_nu_plus_family :
  ?seed:int ->
  ?stab_time:int ->
  Procset.Quorum_family.t ->
  Sim.Failure_pattern.t ->
  (t, Procset.Quorum_family.error) result
(** Sigma-nu+ over a quorum family: like {!sigma_nu_family} but
    self-including (the owner is added to each family quorum —
    monotonicity keeps it a quorum), and faulty processes always
    output faulty-only quorums: family quorums share no fixed pivot,
    so only the no-correct-member branch of conditional
    nonintersection is sound for every family. *)

val perfect : Sim.Failure_pattern.t -> t
(** Perfect information as a quorum detector: [H(p, t) = Pi - F(t)].
    Satisfies Sigma (hence Sigma-nu). *)

val perfect_plus : Sim.Failure_pattern.t -> t
(** [H(p, t) = (Pi - F(t)) ∪ {p}] — perfect information made
    self-including; satisfies Sigma-nu+ (every quorum contains all of
    [correct(F)], so all quorums intersect). *)

val eventually_strong :
  ?seed:int -> ?stab_time:int -> Sim.Failure_pattern.t -> t
(** The eventually-strong detector [<>S] of Chandra–Toueg [CT96],
    with [Suspects] range: strong completeness (eventually every
    faulty process is permanently suspected by every correct process)
    and eventual weak accuracy (there is a time after which some
    correct process is never suspected by any correct process). Before
    stabilization, arbitrary suspicions; afterwards, exactly the
    crashed set. *)

val pair : t -> t -> t
(** [pair d d'] is the product detector [(D, D')] of Section 2.3:
    queries both and outputs [Pair]. *)
