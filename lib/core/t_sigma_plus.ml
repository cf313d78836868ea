open Procset
module Dag = Dagsim.Dag
module Node = Dagsim.Node

let search_window = 120

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
  let rec extend j participants trusted =
    if j >= len then None
    else
      let v = arr.(j) in
      let participants = Pset.add v.Node.owner participants in
      let trusted = Pset.union (quorum_of_node v) trusted in
      if Pset.mem self participants && Pset.subset trusted participants then
        Some participants
      else extend (j + 1) participants trusted
  in
  let rec from_start i =
    if i >= len then None
    else
      match extend i Pset.empty Pset.empty with
      | None -> from_start (i + 1)
      | found -> found
  in
  from_start (max 0 (len - search_window))

(* The module being sampled is Sigma-nu; accept it bare or as the
   second component of a product detector. *)
let sigma_nu_component = function
  | Sim.Fd_value.Quorum _ as q -> q
  | Sim.Fd_value.Pair (_, (Sim.Fd_value.Quorum _ as q)) -> q
  | v ->
    invalid_arg
      (Format.asprintf "%s: detector value %a has no Sigma-nu component"
         "T_sigma_plus" Sim.Fd_value.pp v)

(* Lines 14-17 of Fig. 3: look for a good path in G_p|u_p. *)
include Dagsim.Adag.Emulator (struct
  let name = "T_{Sigma-nu->Sigma-nu+}"

  (* Must comfortably exceed [search_window]: the search scans a spine
     suffix of at most that many nodes, all of which may belong to one
     owner, and pruning inside it would shorten the paths it can find. *)
  let prune_window = 160
  let extract_every = 2
  let sample = sigma_nu_component
  let extract ~n:_ ~self g u = find_good_path ~self (Dag.weave g ~from:u)
end)
