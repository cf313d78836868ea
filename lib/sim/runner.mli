(** Executing algorithms under failure patterns and detector histories.

    [Runner.Make (A)] produces finite prefixes of {e admissible runs}
    (Section 2.6 of the paper) of algorithm [A]:

    - exactly one step per global clock tick, so the time list is
      strictly increasing (run properties (4)–(5));
    - a process takes no step at or after its crash time and the
      failure-detector value of each step is [H(p, t)] (property (3));
    - the fair scheduler works in shuffled rounds over the live
      processes, so every correct process takes a step in every window
      of [n] ticks (the finite-run surrogate of property (6));
    - messages older than [max_msg_age] are force-delivered, so every
      message to a correct process is received within a bounded delay
      (the finite-run surrogate of property (7)).

    A scripted mode gives experiments full adversarial control of the
    interleaving and of message delays — it checks model conformance
    (no step after crash) but deliberately does not enforce fairness,
    exactly as the proof constructions of Theorem 7.1 and Section 6.3
    require. *)

type metrics = {
  steps_per_process : int array;
      (** steps taken by each process, indexed by pid *)
  sent : int;  (** messages sent by all processes (logical sends) *)
  delivered : int;  (** steps that received a (non-lambda) message *)
  dropped : int;
      (** messages lost by injected faults (random drops and severed
          partition links); always 0 without a fault spec *)
  duplicated : int;
      (** extra copies enqueued by injected duplication faults *)
  reordered : int;
      (** messages the fault layer inserted ahead of already-queued
          ones at their destination *)
  undelivered_at_stop : int;
      (** messages still buffered when the run ended — end-of-run
          leftovers, including sends to crashed processes (this is
          what the pre-fault-layer [dropped] counted) *)
  mailbox_hwm : int;
      (** high-water mark of any single process's mailbox depth *)
  wall_seconds : float;  (** wall-clock duration of the execution *)
}
(** Per-run observability counters, shared by every instantiation of
    {!Make}. The conservation law
    [sent - dropped + duplicated = delivered + undelivered_at_stop]
    holds for every run. *)

val pp_metrics : Format.formatter -> metrics -> unit

module Make (A : Automaton.S) : sig
  type recorded_step = {
    time : int;  (** the global tick [T(i)] of this step *)
    pid : Procset.Pid.t;  (** the process taking the step *)
    received : A.message Envelope.t option;  (** [None] = lambda *)
    fd : Fd_value.t;  (** the detector value seen in the step *)
    state_after : A.state;  (** the process state after the step *)
  }

  type run = {
    pattern : Failure_pattern.t;
    faults : Faults.t;  (** the fault spec the run executed under *)
    states : A.state array;  (** last state of each process *)
    steps : recorded_step array;  (** full trace, empty if unrecorded *)
    step_count : int;  (** number of steps taken *)
    messages_sent : int;  (** total messages sent by all processes *)
    undelivered : A.message Envelope.t list;  (** still in the buffer *)
    stopped_early : bool;  (** [stop] fired before [max_steps] *)
    metrics : metrics;  (** observability counters for this run *)
  }

  val exec :
    ?seed:int ->
    ?faults:Faults.t ->
    ?max_msg_age:int ->
    ?lambda_prob:float ->
    ?stop:((Procset.Pid.t -> A.state) -> int -> bool) ->
    ?record:bool ->
    pattern:Failure_pattern.t ->
    fd:(Procset.Pid.t -> int -> Fd_value.t) ->
    inputs:(Procset.Pid.t -> A.input) ->
    max_steps:int ->
    unit ->
    run
  (** [exec ~pattern ~fd ~inputs ~max_steps ()] runs [A] to completion
      of [max_steps] ticks or until [stop states time] holds (checked
      at round boundaries). [fd p t] is the history value [H(p, t)].
      [seed] (default 0) fixes the scheduler's randomness; runs are
      fully deterministic given their arguments. [faults] (default
      {!Faults.none}) injects link faults at send time; fault
      decisions are pure hashes of the spec and the message identity,
      never scheduler RNG draws, so a zero-rate spec leaves the run
      byte-identical to one executed without the fault layer.
      [max_msg_age] (default [4 * n]) bounds message delay;
      [lambda_prob] (default 0.15) is the chance a step receives
      lambda while messages are pending. [record] (default true)
      keeps the full trace. *)

  (** How a scripted step picks the message to receive. *)
  type msg_choice =
    | Lambda  (** receive the empty message *)
    | Oldest  (** oldest pending message for the actor *)
    | Oldest_from of Procset.Pid.t
        (** oldest pending message from a given sender *)
    | Matching of (A.message Envelope.t -> bool)
        (** oldest pending message satisfying a predicate *)

  type action = { actor : Procset.Pid.t; choice : msg_choice }

  exception Script_error of string
  (** Raised when a scripted action is inapplicable: the actor has
      crashed at the current time, or no pending message matches a
      non-[Lambda] choice. *)

  val exec_script :
    ?record:bool ->
    ?faults:Faults.t ->
    pattern:Failure_pattern.t ->
    fd:(Procset.Pid.t -> int -> Fd_value.t) ->
    inputs:(Procset.Pid.t -> A.input) ->
    script:action list ->
    unit ->
    run
  (** [exec_script ~script ()] executes exactly the scripted steps, in
      order, one tick each, starting at time 1. [faults] applies to
      sends exactly as in {!exec}; a scripted [Oldest]/[Matching]
      choice over a faulted buffer sees the post-fault contents. *)

  (** Step-by-step execution with feedback, for adaptive adversaries:
      the proof-scenario drivers (the contamination scenario of
      Section 6.3, the two-run construction of Theorem 7.1) inspect
      process states between steps and adjust their oracle or their
      schedule accordingly. *)
  module Session : sig
    type t

    val create :
      ?record:bool ->
      ?faults:Faults.t ->
      pattern:Failure_pattern.t ->
      fd:(Procset.Pid.t -> int -> Fd_value.t) ->
      inputs:(Procset.Pid.t -> A.input) ->
      unit ->
      t

    val step : ?choice:msg_choice -> t -> Procset.Pid.t -> unit
    (** Executes one step of the given process at the current time
        (default choice [Oldest] if a message is pending, else
        lambda). Raises {!Script_error} on an inapplicable step. *)

    val state : t -> Procset.Pid.t -> A.state
    val time : t -> int
    val pending : t -> Procset.Pid.t -> A.message Envelope.t list
    val finish : t -> run
    (** Snapshot the session as a {!run} (the session stays usable). *)
  end

  type replay_step = {
    r_pid : Procset.Pid.t;
    r_received : A.message Envelope.t option;
    r_fd : Fd_value.t;
  }

  val to_replay : recorded_step list -> replay_step list
  (** Forgets times and state snapshots, keeping what {!replay}
      needs. *)

  val merge_traces :
    recorded_step list -> recorded_step list -> replay_step list
  (** [merge_traces s0 s1] interleaves two traces by their recorded
      times, nondecreasing, as in the merging of two mergeable runs
      (Section 2.10). The traces must be time-sorted; ties resolve in
      favour of [s0]. *)

  val conformance :
    ?fairness_window:int ->
    ?delivery_bound:int ->
    fd:(Procset.Pid.t -> int -> Fd_value.t) ->
    inputs:(Procset.Pid.t -> A.input) ->
    run ->
    (unit, string) result
  (** Independent validation of a recorded run against the run
      properties of Section 2.6 — a check on the {e runner itself},
      not on the algorithm:

      (1) applicability: every received message was genuinely pending
      (via {!replay}); (3) every step's pid is in range, no process
      steps at or after its crash time, and every step's detector
      value equals [fd p t]; (4)/(5) times are strictly increasing
      (which subsumes causal precedence); (6) fairness surrogate:
      every correct process takes
      at least one step in every [fairness_window] ticks (default
      [4 * n]; skipped if the run stopped early on its final partial
      window); (7) delivery surrogate: no message addressed to a
      correct process stays undelivered longer than [delivery_bound]
      ticks while the run continues (default checks only that
      undelivered leftovers at the end are recent). Runs produced by
      {!exec_script} generally fail (6)/(7) by design — pass large
      windows to check only the hard model constraints.

      For a run executed under a nonempty fault spec the delivery
      surrogate (7) is skipped — reordering can legally starve an old
      message past any finite bound, and a drop is, on a finite
      prefix, indistinguishable from a delivery delayed past the
      horizon — while (1)/(3)–(6) are checked unchanged; replay runs
      under the run's own recorded spec.

      A run with [step_count = 0] conforms trivially and yields
      [Ok ()] — there is nothing to check, and in particular the
      delivery surrogate is not consulted. A run that took steps but
      recorded none (executed with [~record:false]) yields an
      explicit [Error]: validating it would be vacuous, which
      silently hid runner bugs before this was made an error. *)

  val replay :
    n:int ->
    ?faults:Faults.t ->
    inputs:(Procset.Pid.t -> A.input) ->
    replay_step list ->
    (A.state array, string) result
  (** [replay ~n ~inputs steps] re-applies a schedule to the initial
      configuration determined by [inputs], checking applicability:
      each step's pid must be in range, and each received message must
      be addressed to the stepping process and present in its
      reconstructed message buffer (matched by unique identity and
      payload equality). Returns the final states, or [Error reason]
      naming the first inapplicable step — the executable core of
      Lemma 2.2.

      [faults] (default {!Faults.none}) must be the spec the original
      run executed under: replay re-derives each send's (src, dst,
      seq, time) identity, so it recomputes the exact drop/duplicate
      verdicts the execution applied and a faulty run round-trips
      exactly. Reorder displacement needs no reapplication — identity
      matching is order-insensitive. *)
end
