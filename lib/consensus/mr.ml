open Procset

type message =
  | Lead of { round : int; est : Value.t }
  | Rep of { round : int; est : Value.t }
  | Prop of { round : int; value : Value.t option }

let pp_message fmt = function
  | Lead { round; est } -> Format.fprintf fmt "LEAD(%d, %a)" round Value.pp est
  | Rep { round; est } -> Format.fprintf fmt "REP(%d, %a)" round Value.pp est
  | Prop { round; value } ->
    Format.fprintf fmt "PROP(%d, %a)" round Value.pp_opt value

let equal_message a b =
  match a, b with
  | Lead x, Lead y -> x.round = y.round && Value.equal x.est y.est
  | Rep x, Rep y -> x.round = y.round && Value.equal x.est y.est
  | Prop x, Prop y ->
    x.round = y.round && Option.equal Value.equal x.value y.value
  | (Lead _ | Rep _ | Prop _), _ -> false

type phase_view = Phase_start | Phase_lead | Phase_rep | Phase_prop

module type S = sig
  include Spec.S with type message = message

  val round : state -> int
  val estimate : state -> Value.t
  val phase : state -> phase_view
end

module Imap = Map.Make (Int)

(* Per-round, per-sender message stores. *)
type 'a store = 'a Imap.t Imap.t

let store_add round sender v s =
  let inner = Option.value ~default:Imap.empty (Imap.find_opt round s) in
  Imap.add round (Imap.add sender v inner) s

let store_round round s =
  Option.value ~default:Imap.empty (Imap.find_opt round s)

type phase = Start | Wait_lead | Wait_rep | Wait_prop

type state = {
  x : Value.t;
  k : int;
  phase : phase;
  decided : (Value.t * int) option;
  leads : Value.t store;
  reps : Value.t store;
  props : Value.t option store;
}

let leader_of_fd name = function
  | Sim.Fd_value.Leader l -> l
  | Sim.Fd_value.Pair (Sim.Fd_value.Leader l, _) -> l
  | v ->
    invalid_arg
      (Format.asprintf "%s: failure detector value %a has no leader" name
         Sim.Fd_value.pp v)

let quorum_of_fd name = function
  | Sim.Fd_value.Pair (_, Sim.Fd_value.Quorum q) -> q
  | Sim.Fd_value.Quorum q -> q
  | v ->
    invalid_arg
      (Format.asprintf "%s: failure detector value %a has no quorum" name
         Sim.Fd_value.pp v)

module type CONFIG = sig
  val algorithm_name : string
  val mode : [ `Fd_quorum | `Family of Quorum_family.t ]
end

module Make (C : CONFIG) : S = struct
  type input = Value.t
  type nonrec message = message
  type nonrec state = state

  let name = C.algorithm_name

  let initial ~n:_ ~self:_ x =
    {
      x;
      k = 0;
      phase = Start;
      decided = None;
      leads = Imap.empty;
      reps = Imap.empty;
      props = Imap.empty;
    }

  let broadcast ~n msg = List.map (fun q -> (q, msg)) (Pid.all ~n)

  let record st = function
    | None -> st
    | Some env -> (
      match env.Sim.Envelope.payload with
      | Lead { round; est } ->
        { st with leads = store_add round env.Sim.Envelope.src est st.leads }
      | Rep { round; est } ->
        { st with reps = store_add round env.Sim.Envelope.src est st.reps }
      | Prop { round; value } ->
        { st with props = store_add round env.Sim.Envelope.src value st.props })

  (* [collected ~n st round store d] decides whether the wait of the
     current phase is satisfied: under `Family, a family quorum of
     distinct senders; under `Fd_quorum, every member of the quorum
     currently output by the detector. Returns the bindings to
     consider. *)
  let collected ~n round store d =
    let inner = store_round round store in
    match C.mode with
    | `Family fam ->
      let senders =
        Imap.fold (fun sender _ acc -> Pset.add sender acc) inner Pset.empty
      in
      if Quorum_family.is_quorum fam ~n senders then
        Some (Imap.bindings inner)
      else None
    | `Fd_quorum ->
      let q = quorum_of_fd C.algorithm_name d in
      if Pset.is_empty q then None
      else if Pset.for_all (fun m -> Imap.mem m inner) q then
        Some
          (List.filter
             (fun (sender, _) -> Pset.mem sender q)
             (Imap.bindings inner))
      else None

  (* Decision rule on the collected phase-3 proposals. *)
  let decide_on ~n collected_props =
    let non_unknown =
      List.filter_map
        (fun (sender, v) -> Option.map (fun v -> (sender, v)) v)
        collected_props
    in
    (* Adopt the non-"?" value carried by the largest sender id; under
       Sigma(-like) quorums all non-"?" values coincide (property (A)),
       so the tie-break is only observable under a Sigma-nu oracle. *)
    let adopt =
      List.fold_left
        (fun acc (sender, v) ->
          match acc with
          | Some (s, _) when s > sender -> acc
          | _ -> Some (sender, v))
        None non_unknown
      |> Option.map snd
    in
    let decide =
      match C.mode with
      | `Family fam ->
        (* a family quorum of proposals for the same v <> ?; at most
           one value can be quorum-supported (any two family quorums
           intersect and each sender proposes once per round), so the
           scan order is immaterial *)
        let support v =
          List.fold_left
            (fun acc (sender, v') ->
              if Value.equal v v' then Pset.add sender acc else acc)
            Pset.empty non_unknown
        in
        List.find_map
          (fun (_, v) ->
            if Quorum_family.is_quorum fam ~n (support v) then Some v
            else None)
          non_unknown
      | `Fd_quorum -> (
        (* the same v <> ? from every member of the collected quorum *)
        match non_unknown with
        | (_, v) :: rest
          when List.length non_unknown = List.length collected_props
               && List.for_all (fun (_, v') -> Value.equal v v') rest ->
          Some v
        | _ -> None)
    in
    (adopt, decide)

  (* Advance the phase machine as far as the received messages allow,
     accumulating sends. *)
  let rec advance ~n ~self st d sends =
    match st.phase with
    | Start ->
      let k = 1 in
      let st = { st with k; phase = Wait_lead } in
      advance ~n ~self st d (broadcast ~n (Lead { round = k; est = st.x }) @ sends)
    | Wait_lead -> (
      let l = leader_of_fd C.algorithm_name d in
      match Imap.find_opt l (store_round st.k st.leads) with
      | None -> (st, sends)
      | Some v ->
        let st = { st with x = v; phase = Wait_rep } in
        advance ~n ~self st d
          (broadcast ~n (Rep { round = st.k; est = st.x }) @ sends))
    | Wait_rep -> (
      match collected ~n st.k st.reps d with
      | None -> (st, sends)
      | Some reports ->
        let proposal =
          match reports with
          | [] -> None
          | (_, v0) :: rest ->
            if List.for_all (fun (_, v) -> Value.equal v v0) rest then
              Some v0
            else None
        in
        let st = { st with phase = Wait_prop } in
        advance ~n ~self st d
          (broadcast ~n (Prop { round = st.k; value = proposal }) @ sends))
    | Wait_prop -> (
      match collected ~n st.k st.props d with
      | None -> (st, sends)
      | Some proposals ->
        let adopt, decide = decide_on ~n proposals in
        let x = Option.value ~default:st.x adopt in
        let decided =
          match st.decided, decide with
          | None, Some v -> Some (v, st.k)
          | already, _ -> already
        in
        let k = st.k + 1 in
        let st = { st with x; decided; k; phase = Wait_lead } in
        advance ~n ~self st d
          (broadcast ~n (Lead { round = k; est = x }) @ sends))

  let step ~n ~self st received d =
    let st = record st received in
    let st, sends = advance ~n ~self st d [] in
    (st, List.rev sends)

  let pp_message = pp_message
  let equal_message = equal_message
  let decision st = Option.map fst st.decided
  let decision_round st = Option.map snd st.decided
  let round st = st.k
  let estimate st = st.x

  let phase st =
    match st.phase with
    | Start -> Phase_start
    | Wait_lead -> Phase_lead
    | Wait_rep -> Phase_rep
    | Wait_prop -> Phase_prop
end

module Majority = Make (struct
  let algorithm_name = "MR-majority"
  let mode = `Family Quorum_family.majority
end)

module With_quorum = Make (struct
  let algorithm_name = "MR-quorum"
  let mode = `Fd_quorum
end)

let family fam : (module S) =
  (module Make (struct
    let algorithm_name = Printf.sprintf "MR[%s]" (Quorum_family.name fam)
    let mode = `Family fam
  end))
