(** The DAG-building algorithm [A_DAG] (Fig. 1).

    {!Core} is the reusable loop body (lines 5–12). {!Algorithm}
    packages it as a standalone {!Sim.Automaton.S} used to validate
    the Section 4 observations and lemmas in the test suite.
    {!Emulator} runs it, with a freshness barrier, inside both
    transformation algorithms of the paper ([T_{D->Sigma-nu}], Fig. 2,
    and [T_{Sigma-nu->Sigma-nu+}], Fig. 3); each adds only its
    extraction test. *)

module Core : sig
  type state = {
    k : int;  (** the sample counter [k_p] *)
    g : Dag.t;  (** the DAG [G_p] *)
    last : Node.t option;  (** the node variable [v_p] (lines 9–10) *)
  }

  val init : state
  (** [k_p = 0], empty graph — the initialize clause. *)

  val step :
    ?prune_window:int ->
    self:Procset.Pid.t ->
    state ->
    Dag.t option ->
    Sim.Fd_value.t ->
    state
  (** [step ~self st incoming d] performs lines 6–10 of one loop
      iteration: union the received DAG (if any) into [G_p], increment
      [k_p], take sample [(self, d, k_p)] and add it with edges from
      every other node. The caller is responsible for line 11 (sending
      the updated [g] to every process).

      [prune_window], if given, drops each owner's samples more than
      that many indices behind the owner's newest sample. The
      transformation algorithms of Figs. 2–3 only ever look at
      [G_p|u_p] with a freshness barrier [u_p] that keeps advancing,
      so old samples can never contribute to an output again; pruning
      them bounds the per-step cost without affecting what is
      emitted. *)
end

module Algorithm : sig
  include
    Sim.Automaton.S
      with type input = unit
       and type state = Core.state
       and type message = Dag.t

  val gossip_target : n:int -> self:Procset.Pid.t -> int -> Procset.Pid.t
  (** [gossip_target ~n ~self k] is the peer that receives the DAG
      after the [k]-th sample. Fig. 1 line 11 sends to every process
      every step; under the model's one-receipt-per-step budget that
      grows the message buffers without bound, so the implementation
      rotates through the peers — every peer still receives updated
      DAGs infinitely often, which is all the Section 4 lemmas
      require. *)
end
(** [A_DAG] itself: each step receives an optional DAG, samples the
    ambient failure detector, updates the local DAG and gossips it to
    a rotating peer. *)

(** What distinguishes Fig. 2 from Fig. 3. [prune_window] is the
    per-owner window of {!Core.step}; it must exceed what [extract]
    reads of any one owner, or pruning would cut its paths short.
    [extract] runs on every [extract_every]-th step only: any positive
    period attempts it infinitely often, which is all liveness
    needs. *)
module type EXTRACTION = sig
  val name : string
  val prune_window : int
  val extract_every : int

  val sample : Sim.Fd_value.t -> Sim.Fd_value.t
  (** The part of the detector value that [A_DAG] stores. *)

  val extract :
    n:int -> self:Procset.Pid.t -> Dag.t -> Node.t -> Procset.Pset.t option
  (** [extract ~n ~self g u] is the figure's test on [G_p|u_p], with
      [g = G_p] and [u = u_p]: the quorum to output, if any. *)
end

(** What both transformations export. *)
module type TRANSFORMATION = sig
  include
    Sim.Automaton.S with type input = unit and type message = Dag.t

  val output : state -> Procset.Pset.t
  (** The current emulated quorum, initially [Pi]. *)

  val dag : state -> Dag.t
  (** The current DAG of samples [G_p] (diagnostics). *)

  val extractions : state -> int
  (** How many quorums this process has output so far. *)
end

(** Fig. 2 lines 5–13 and Fig. 3 lines 6–13: each step is one [A_DAG]
    iteration sampling [X.sample d], with pruning, that keeps the
    freshness barrier [u_p]. Every [X.extract_every] steps [X.extract]
    stands in for Fig. 2 lines 14–19 or Fig. 3 lines 14–17; a quorum
    it returns becomes the output, and [u_p] moves to the newest own
    sample. The step then gossips [G_p] to {!Algorithm.gossip_target}.

    Pruning drops [u_p] itself once a process goes [X.prune_window]
    own samples without an output, which would leave [G_p|u_p] empty
    for good; the barrier is then re-anchored to the newest own
    sample. Own samples are chained (Obs. 4.2), so the new barrier
    descends from the old one: [G_p|u_p] only loses nodes, and
    soundness holds. *)
module Emulator (X : EXTRACTION) : TRANSFORMATION
