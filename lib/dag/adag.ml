open Procset

module Core = struct
  type state = { k : int; g : Dag.t; last : Node.t option }

  let init = { k = 0; g = Dag.empty; last = None }

  let step ?prune_window ~self st incoming d =
    let g = match incoming with None -> st.g | Some g' -> Dag.union st.g g' in
    let k = st.k + 1 in
    let node = { Node.owner = self; index = k; value = d } in
    let g = Dag.add_sample g node in
    let g =
      match prune_window with
      | None -> g
      | Some w -> Dag.prune ~window:w g
    in
    { k; g; last = Some node }
end

module Algorithm = struct
  type input = unit
  type state = Core.state
  type message = Dag.t

  let name = "A_DAG"
  let initial ~n:_ ~self:_ () = Core.init

  (* Fig. 1 line 11 sends G_p to every process in every step; with the
     model's one-receipt-per-step budget that floods the buffers and
     makes every received DAG arbitrarily stale. Rotating through the
     peers one per step delivers the same DAGs (every peer still
     receives updated DAGs infinitely often, which is all the
     Section 4 lemmas use) without the queue growth. *)
  let gossip_target ~n ~self k = (self + 1 + ((k - 1) mod (n - 1))) mod n

  let step ~n ~self st received d =
    let incoming = Option.map (fun e -> e.Sim.Envelope.payload) received in
    let st = Core.step ~self st incoming d in
    let dst = gossip_target ~n ~self st.Core.k in
    (st, [ (dst, st.Core.g) ])

  let pp_message = Dag.pp

  let equal_message g g' =
    (* Structural comparison by node identities suffices: equal node
       sets imply equal edge sets under the A_DAG invariant. *)
    List.equal Node.equal (Dag.nodes g) (Dag.nodes g')
end

module type EXTRACTION = sig
  val name : string
  val prune_window : int
  val extract_every : int
  val sample : Sim.Fd_value.t -> Sim.Fd_value.t
  val extract : n:int -> self:Pid.t -> Dag.t -> Node.t -> Pset.t option
end

module type TRANSFORMATION = sig
  include Sim.Automaton.S with type input = unit and type message = Dag.t

  val output : state -> Pset.t
  val dag : state -> Dag.t
  val extractions : state -> int
end

module Emulator (X : EXTRACTION) = struct
  type input = unit
  type message = Dag.t

  type state = {
    core : Core.state;
    u : Node.t option;  (** the freshness barrier [u_p] *)
    out : Pset.t;  (** the emulated quorum output *)
    extraction_count : int;
    steps_since_extract : int;
  }

  let name = X.name

  let initial ~n ~self:_ () =
    {
      core = Core.init;
      u = None;
      out = Pset.full ~n;
      extraction_count = 0;
      steps_since_extract = 0;
    }

  let step ~n ~self st received d =
    let incoming = Option.map (fun e -> e.Sim.Envelope.payload) received in
    let core =
      Core.step ~prune_window:X.prune_window ~self st.core incoming (X.sample d)
    in
    (* Initialize the barrier with the first sample; re-anchor it to the
       newest own sample if pruning dropped it. *)
    let u =
      match st.u with
      | Some u_node when Dag.mem core.Core.g u_node -> st.u
      | Some _ | None -> core.Core.last
    in
    let since = st.steps_since_extract + 1 in
    let st = { st with core; u; steps_since_extract = since } in
    let st =
      match u with
      | Some u_node when since >= X.extract_every -> (
        let st = { st with steps_since_extract = 0 } in
        match X.extract ~n ~self core.Core.g u_node with
        | Some out ->
          let extraction_count = st.extraction_count + 1 in
          { st with out; u = core.Core.last; extraction_count }
        | None -> st)
      | Some _ | None -> st
    in
    (st, [ (Algorithm.gossip_target ~n ~self core.Core.k, core.Core.g) ])

  let pp_message = Dag.pp
  let equal_message = Algorithm.equal_message
  let output st = st.out
  let dag st = st.core.Core.g
  let extractions st = st.extraction_count
end
