(** Simulated schedules along a DAG path (Section 4.2).

    A path [g = (p1,d1,k1), (p2,d2,k2), ...] of a DAG of samples
    determines simulated schedules of any algorithm [A]: step [i] is
    taken by [p_i], which sees failure-detector value [d_i]; the
    message received in each step is the free choice. [Path_sim]
    builds the {e canonical} compatible schedule of Lemma 4.10 — each
    step receives the {e oldest} message pending for the stepping
    process, or the empty message if there is none — which is exactly
    the schedule whose infinite extension the paper proves admissible,
    and hence the one whose prefixes make the emulations of Figs. 2–3
    live. *)

module Make (A : Sim.Automaton.S) : sig
  type result = {
    states : A.state array;  (** configuration after the executed prefix *)
    steps_executed : int;  (** length of the executed prefix *)
    stopped : bool;  (** the [until] predicate fired *)
  }

  val run :
    n:int ->
    inputs:(Procset.Pid.t -> A.input) ->
    path:(Procset.Pid.t * Sim.Fd_value.t) list ->
    ?until:((Procset.Pid.t -> A.state) -> bool) ->
    unit ->
    result
  (** [run ~n ~inputs ~path ()] applies the canonical schedule
      compatible with [path] to the initial configuration given by
      [inputs], one {!Sim.Runner.Make.Session} step per path entry, on
      a crash-free network. If [until] is supplied, execution stops
      after the first step whose resulting configuration (process
      states by pid) satisfies it; the executed prefix length
      identifies the deciding schedule prefix (and hence its
      participants). *)

  val participants : path:(Procset.Pid.t * Sim.Fd_value.t) list ->
    prefix:int -> Procset.Pset.t
  (** Owners of the first [prefix] steps of [path] — the
      [participants(S)] of the corresponding schedule prefix. *)
end
