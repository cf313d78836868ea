(** The consensus problem: the automaton interface, the specification,
    and one seeded run checked against it.

    A consensus algorithm (Section 2.8) is an automaton that proposes
    its input and decides at most once, for good: {!S}. Every
    algorithm here has this interface, and every driver, functor and
    algorithm table takes it.

    Nonuniform consensus: termination (every correct process
    decides), nonuniform agreement (no two {e correct} processes
    decide differently), validity (every decision was proposed).
    Uniform consensus strengthens agreement to all processes. This
    module checks those properties on the observable outcome of a
    finite run, and {!decide} produces that outcome from one seeded
    run. *)

(** A consensus algorithm: the automaton's input is its proposal,
    and its state exposes the decision. *)
module type S = sig
  include Sim.Automaton.S with type input = Value.t

  val decision : state -> Value.t option
  (** The decided value, if this process has decided. Decisions are
      irrevocable. *)

  val decision_round : state -> int option
  (** The round in which this process decided. *)
end

type flavour = Uniform | Nonuniform

val pp_flavour : Format.formatter -> flavour -> unit

type outcome = {
  pattern : Sim.Failure_pattern.t;
  proposals : Value.t array;  (** proposal of each process *)
  decisions : Value.t option array;
      (** final decision of each process, [None] = undecided *)
}

val outcome :
  pattern:Sim.Failure_pattern.t ->
  proposals:(Procset.Pid.t -> Value.t) ->
  decisions:(Procset.Pid.t -> Value.t option) ->
  outcome
(** Collects an observable outcome from accessors. *)

val check_termination : outcome -> (unit, string) result
(** Every correct process has decided. *)

val check_validity : outcome -> (unit, string) result
(** Every decision (by any process) is some process's proposal. *)

val check_agreement : flavour -> outcome -> (unit, string) result
(** No two processes in scope decide differently; the scope is the
    correct processes for [Nonuniform], everyone for [Uniform]. *)

val check_safety : flavour -> outcome -> (unit, string) result
(** Validity, then agreement: {!check} without termination, for runs
    whose liveness may legitimately fail. *)

val check : flavour -> outcome -> (unit, string) result
(** All three properties; the first violation is reported. *)

type run = {
  outcome : outcome;  (** the proposals and every decision at the stop *)
  rounds : int list;  (** decision rounds of the correct deciders *)
  steps : int;  (** ticks executed *)
  all_decided : bool;
      (** every correct process decided within the budget *)
  metrics : Sim.Runner.metrics;
}

val decide :
  (module S) ->
  ?faults:Sim.Faults.t ->
  seed:int ->
  pattern:Sim.Failure_pattern.t ->
  fd:(Procset.Pid.t -> int -> Sim.Fd_value.t) ->
  proposals:(Procset.Pid.t -> Value.t) ->
  max_steps:int ->
  unit ->
  run
(** [decide (module A) ~seed ~pattern ~fd ~proposals ~max_steps ()]
    is one seeded, unrecorded {!Sim.Runner.Make.exec} run of [A]
    until every correct process has decided or [max_steps] ticks have
    passed. *)
