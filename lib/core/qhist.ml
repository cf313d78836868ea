open Procset

module Pmap = Map.Make (Int)

type t = Qset.t Pmap.t

let empty = Pmap.empty
let get h r = Option.value ~default:Qset.empty (Pmap.find_opt r h)
let add h r q = Pmap.add r (Qset.add q (get h r)) h
let knows h r q = Qset.mem q (get h r)

let import h h' =
  Pmap.union (fun _ a b -> Some (Qset.union a b)) h h'

(* [common qs]: the processes in every quorum of [qs]; every process
   when [qs] is empty. *)
let everyone = Pset.full ~n:Pset.max_size
let common qs = Qset.fold Pset.inter qs everyone

(* [Qset.exists_disjoint_pair a b], where [ca] is [common a]. A
   process in both commons lies in both quorums of every pair, so no
   pair is disjoint; only otherwise scan the pairs. *)
let conflict ca a b =
  (not (Pset.intersects ca (common b))) && Qset.exists_disjoint_pair a b

let considered_faulty ~self h =
  let own = get h self in
  let c = common own in
  Pmap.fold
    (fun q' quorums acc -> if conflict c own quorums then Pset.add q' acc else acc)
    h Pset.empty

let distrusts_any ~self ~n h s =
  let fp = ref None in
  let faulty r =
    match !fp with
    | Some f -> Pset.mem r f
    | None ->
      let f = considered_faulty ~self h in
      fp := Some f;
      Pset.mem r f
  in
  Pset.exists
    (fun q ->
      let hq = get h q in
      (not (Qset.is_empty hq))
      &&
      let cq = common hq in
      Pmap.exists (fun r hr -> r < n && conflict cq hq hr && not (faulty r)) h)
    s

let distrusts ~self ~n h q = distrusts_any ~self ~n h (Pset.singleton q)

let equal = Pmap.equal Qset.equal

let pp fmt h =
  Format.fprintf fmt "{@[";
  Pmap.iter
    (fun r qs ->
      if not (Qset.is_empty qs) then
        Format.fprintf fmt "p%d:%a;@ " r Qset.pp qs)
    h;
  Format.fprintf fmt "@]}"
