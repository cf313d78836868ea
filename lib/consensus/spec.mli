(** The consensus problem specification and run verdicts.

    Nonuniform consensus (Section 2.8): termination (every correct
    process decides), nonuniform agreement (no two {e correct}
    processes decide differently), validity (every decision was
    proposed). Uniform consensus strengthens agreement to all
    processes. This module checks those properties on the observable
    outcome of a finite run. *)

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

val check : flavour -> outcome -> (unit, string) result
(** All three properties; the first violation is reported. *)
