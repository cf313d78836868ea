open Procset
module Dag = Dagsim.Dag
module Node = Dagsim.Node
module Adag = Dagsim.Adag

type input = unit
type message = Dag.t

type state = {
  core : Adag.Core.state;
  u : Node.t option;  (** the freshness barrier [u_p] *)
  out : Pset.t;  (** [Sigma-nu+-output_p] *)
  steps_since_extract : int;
  extraction_count : int;  (** how many quorums have been output *)
}

let name = "T_{Sigma-nu->Sigma-nu+}"
let search_window = ref 120
let extract_every = ref 2
let prune_window = ref 160

let initial ~n ~self:_ () =
  {
    core = Adag.Core.init;
    u = None;
    out = Pset.full ~n;
    steps_since_extract = 0;
    extraction_count = 0;
  }

let quorum_of_node v =
  match v.Node.value with
  | Sim.Fd_value.Quorum q -> q
  | d ->
    invalid_arg
      (Format.asprintf "%s: sampled non-quorum value %a" "T_sigma_plus"
         Sim.Fd_value.pp d)

(* Find a contiguous subpath [g] of [spine] with
   [trusted(g) ⊆ participants(g)] and [self ∈ participants(g)];
   returns [participants(g)]. *)
let find_good_path ~self spine =
  let arr = Array.of_list spine in
  let len = Array.length arr in
  let first = max 0 (len - !search_window) in
  let rec from_start i =
    if i >= len then None
    else begin
      let rec extend j participants trusted =
        if j >= len then None
        else begin
          let v = arr.(j) in
          let participants = Pset.add v.Node.owner participants in
          let trusted = Pset.union (quorum_of_node v) trusted in
          if Pset.mem self participants && Pset.subset trusted participants
          then Some participants
          else extend (j + 1) participants trusted
        end
      in
      match extend i Pset.empty Pset.empty with
      | Some participants -> Some participants
      | None -> from_start (i + 1)
    end
  in
  from_start first

(* The module being sampled is Sigma-nu; accept it bare or as the
   second component of a product detector. *)
let sigma_nu_component = function
  | Sim.Fd_value.Quorum _ as q -> q
  | Sim.Fd_value.Pair (_, (Sim.Fd_value.Quorum _ as q)) -> q
  | v ->
    invalid_arg
      (Format.asprintf "%s: detector value %a has no Sigma-nu component"
         "T_sigma_plus" Sim.Fd_value.pp v)

let step ~n ~self st received d =
  let d = sigma_nu_component d in
  let incoming = Option.map (fun e -> e.Sim.Envelope.payload) received in
  (* Lines 6-12 of Fig. 3: one A_DAG iteration sampling Sigma-nu. *)
  let core =
    Adag.Core.step ~prune_window:!prune_window ~self st.core incoming d
  in
  (* Line 13: initialize the freshness barrier with the first sample;
     re-anchor it to the newest own sample if pruning dropped it. *)
  let u =
    match st.u with
    | Some u_node when Dag.mem core.Adag.Core.g u_node -> Some u_node
    | Some _ -> core.Adag.Core.last
    | None -> core.Adag.Core.last
  in
  (* Lines 14-17: look for a good path in G_p|u_p. *)
  let st = { st with steps_since_extract = st.steps_since_extract + 1 } in
  let st =
    match u with
    | Some u_node when st.steps_since_extract >= !extract_every -> (
      let st = { st with steps_since_extract = 0 } in
      let spine = Dag.weave core.Adag.Core.g ~from:u_node in
      match find_good_path ~self spine with
      | Some participants ->
        {
          st with
          core;
          out = participants;
          u = core.Adag.Core.last;
          extraction_count = st.extraction_count + 1;
        }
      | None -> { st with core; u })
    | Some _ | None -> { st with core; u }
  in
  let dst = Adag.Algorithm.gossip_target ~n ~self st.core.Adag.Core.k in
  (st, [ (dst, st.core.Adag.Core.g) ])

let pp_message = Dag.pp
let equal_message = Adag.Algorithm.equal_message
let output st = st.out
let dag st = st.core.Adag.Core.g
let extractions st = st.extraction_count
