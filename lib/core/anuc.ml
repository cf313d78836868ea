open Procset

type message =
  | Lead of { round : int; est : Consensus.Value.t; hist : Qhist.t }
  | Rep of { round : int; est : Consensus.Value.t }
  | Prop of { round : int; value : Consensus.Value.t option; hist : Qhist.t }
  | Saw of { quorum : Pset.t }
  | Ack of { quorum : Pset.t; round : int }

let pp_message fmt = function
  | Lead { round; est; _ } ->
    Format.fprintf fmt "LEAD(%d, %a, H)" round Consensus.Value.pp est
  | Rep { round; est } -> Format.fprintf fmt "REP(%d, %a)" round Consensus.Value.pp est
  | Prop { round; value; _ } ->
    Format.fprintf fmt "PROP(%d, %a, H)" round Consensus.Value.pp_opt value
  | Saw { quorum } -> Format.fprintf fmt "SAW(%a)" Pset.pp quorum
  | Ack { quorum; round } ->
    Format.fprintf fmt "ACK(%a, %d)" Pset.pp quorum round

let equal_message a b =
  match a, b with
  | Lead x, Lead y ->
    x.round = y.round && Consensus.Value.equal x.est y.est && Qhist.equal x.hist y.hist
  | Rep x, Rep y -> x.round = y.round && Consensus.Value.equal x.est y.est
  | Prop x, Prop y ->
    x.round = y.round
    && Option.equal Consensus.Value.equal x.value y.value
    && Qhist.equal x.hist y.hist
  | Saw x, Saw y -> Pset.equal x.quorum y.quorum
  | Ack x, Ack y -> Pset.equal x.quorum y.quorum && x.round = y.round
  | (Lead _ | Rep _ | Prop _ | Saw _ | Ack _), _ -> false

module Imap = Map.Make (Int)

module Qmap = Map.Make (struct
  type t = Pset.t

  let compare = Pset.compare
end)

(* round -> sender -> payload *)
type 'a store = 'a Imap.t Imap.t

let store_add round sender v s =
  let inner = Option.value ~default:Imap.empty (Imap.find_opt round s) in
  Imap.add round (Imap.add sender v inner) s

let store_round round s =
  Option.value ~default:Imap.empty (Imap.find_opt round s)

module type S = sig
  include Consensus.Spec.S with type message = message

  val estimate : state -> Consensus.Value.t
  val history : state -> Qhist.t
  val considered_faulty : self:Procset.Pid.t -> state -> Procset.Pset.t
end

(* Mechanism switches, for the ablation study: the full algorithm
   enables both. Disabling either loses the corresponding safety
   guarantee (Section 6.3 / Lemmas 6.24-6.25) and exists purely so the
   experiments can demonstrate that loss. *)
module type CONFIG = sig
  val use_distrust : bool
  val use_awareness : bool
  val variant_name : string
end

module Make (C : CONFIG) = struct
  type nonrec message = message

  let pp_message = pp_message
  let equal_message = equal_message

  type phase = Start | Wait_lead | Wait_rep | Wait_prop

  type state = {
    x : Consensus.Value.t;
    k : int;
    hist : Qhist.t;
    phase : phase;
    decided : (Consensus.Value.t * int) option;
    leads : (Consensus.Value.t * Qhist.t) store;
    reps : Consensus.Value.t store;
    props : (Consensus.Value.t option * Qhist.t) store;
    sent_saw : Qset.t;  (** the [sent_p] flags (Fig. 4, line 8) *)
    acks : Pset.t Qmap.t;  (** [Acks_p] *)
    ack_round : int Qmap.t;  (** [round_p] *)
    seen : int Qmap.t;  (** [seen_p]; absence encodes infinity *)
  }

  type input = Consensus.Value.t

  let name = C.variant_name

  let initial ~n:_ ~self:_ x =
    {
      x;
      k = 0;
      hist = Qhist.empty;
      phase = Start;
      decided = None;
      leads = Imap.empty;
      reps = Imap.empty;
      props = Imap.empty;
      sent_saw = Qset.empty;
      acks = Qmap.empty;
      ack_round = Qmap.empty;
      seen = Qmap.empty;
    }

  let fd_components = function
    | Sim.Fd_value.Pair (Sim.Fd_value.Leader l, Sim.Fd_value.Quorum q) -> (l, q)
    | v ->
      invalid_arg
        (Format.asprintf
           "A_nuc: failure detector value %a is not (leader, quorum)"
           Sim.Fd_value.pp v)

  let broadcast ~n msg = List.map (fun q -> (q, msg)) (Pid.all ~n)

  (* The upon-receipt handlers of Fig. 4 (lines 35-42) run as soon as a
     message is delivered; receipt of a SAW message answers with an ACK
     carrying the current round. *)
  let record st = function
    | None -> (st, [])
    | Some env -> (
      let src = env.Sim.Envelope.src in
      match env.Sim.Envelope.payload with
      | Lead { round; est; hist } ->
        ({ st with leads = store_add round src (est, hist) st.leads }, [])
      | Rep { round; est } ->
        ({ st with reps = store_add round src est st.reps }, [])
      | Prop { round; value; hist } ->
        ({ st with props = store_add round src (value, hist) st.props }, [])
      | Saw { quorum } ->
        let st = { st with hist = Qhist.add st.hist src quorum } in
        (st, [ (src, Ack { quorum; round = st.k }) ])
      | Ack { quorum; round } ->
        let acks =
          Pset.add src
            (Option.value ~default:Pset.empty (Qmap.find_opt quorum st.acks))
        in
        let rmax =
          max round
            (Option.value ~default:0 (Qmap.find_opt quorum st.ack_round))
        in
        let seen =
          if Pset.equal acks quorum then Qmap.add quorum rmax st.seen
          else st.seen
        in
        ( {
            st with
            acks = Qmap.add quorum acks st.acks;
            ack_round = Qmap.add quorum rmax st.ack_round;
            seen;
          },
          [] ))

  (* get_quorum (Fig. 5, lines 47-50): read the Sigma-nu+ component and
     record the quorum in the process's own history. *)
  let get_quorum ~self st d =
    let _, q = fd_components d in
    let hist = Qhist.add st.hist self q in
    ((if hist == st.hist then st else { st with hist }), q)

  let distrusts ~self ~n st q = Qhist.distrusts ~self ~n st.hist q

  (* Advance the round machine as far as received messages allow. *)
  let rec advance ~n ~self st d sends =
    match st.phase with
    | Start ->
      let k = 1 in
      let st = { st with k; phase = Wait_lead } in
      advance ~n ~self st d
        (broadcast ~n (Lead { round = k; est = st.x; hist = st.hist }) @ sends)
    | Wait_lead -> (
      let l, _ = fd_components d in
      match Imap.find_opt l (store_round st.k st.leads) with
      | None -> (st, sends)
      | Some (v, hist_l) ->
        let st = { st with hist = Qhist.import st.hist hist_l } in
        let st =
          if C.use_distrust && distrusts ~self ~n st l then st
          else { st with x = v }
        in
        let st = { st with phase = Wait_rep } in
        advance ~n ~self st d
          (broadcast ~n (Rep { round = st.k; est = st.x }) @ sends))
    | Wait_rep -> (
      let st, q = get_quorum ~self st d in
      let inner = store_round st.k st.reps in
      if
        Pset.is_empty q
        || not (Pset.for_all (fun m -> Imap.mem m inner) q)
      then (st, sends)
      else
        let values = Pset.fold (fun m acc -> Imap.find m inner :: acc) q [] in
        let proposal =
          match values with
          | [] -> None
          | v0 :: rest ->
            if List.for_all (Consensus.Value.equal v0) rest then Some v0 else None
        in
        let st = { st with phase = Wait_prop } in
        advance ~n ~self st d
          (broadcast ~n
             (Prop { round = st.k; value = proposal; hist = st.hist })
          @ sends))
    | Wait_prop -> (
      let st, q = get_quorum ~self st d in
      let inner = store_round st.k st.props in
      if
        Pset.is_empty q
        || not (Pset.for_all (fun m -> Imap.mem m inner) q)
      then (st, sends)
      else begin
        (* line 27: import the histories carried by the proposals *)
        let st =
          Pset.fold
            (fun m st ->
              let _, hist_m = Imap.find m inner in
              { st with hist = Qhist.import st.hist hist_m })
            q st
        in
        (* line 28: the until-clause; on failure stay in the loop *)
        if C.use_distrust && Qhist.distrusts_any ~self ~n st.hist q
        then (st, sends)
        else begin
          let members =
            Pset.fold (fun m acc -> (m, fst (Imap.find m inner)) :: acc) q []
          in
          let non_unknown =
            List.filter_map
              (fun (m, v) -> Option.map (fun v -> (m, v)) v)
              members
          in
          (* line 29: adopt a non-"?" value (largest sender as the
             deterministic tie-break; under valid histories all non-"?"
             proposals agree, Lemma 6.23) *)
          let adopt =
            List.fold_left
              (fun acc (m, v) ->
                match acc with
                | Some (m', _) when m' > m -> acc
                | _ -> Some (m, v))
              None non_unknown
            |> Option.map snd
          in
          let x = Option.value ~default:st.x adopt in
          (* line 30: unanimous non-"?" value and seen_p[Q] < k_p *)
          let unanimous =
            match non_unknown with
            | (_, v) :: rest
              when List.length non_unknown = List.length members
                   && List.for_all (fun (_, v') -> Consensus.Value.equal v v') rest ->
              Some v
            | _ -> None
          in
          let seen_ok =
            (not C.use_awareness)
            ||
            match Qmap.find_opt q st.seen with
            | Some s -> s < st.k
            | None -> false
          in
          let decided =
            match st.decided, unanimous with
            | None, Some _ when seen_ok -> Some (x, st.k)
            | already, _ -> already
          in
          (* lines 31-33: first use of this quorum to collect proposals *)
          let saw_sends, sent_saw =
            if Qset.mem q st.sent_saw then ([], st.sent_saw)
            else
              ( Pset.fold (fun m acc -> (m, Saw { quorum = q }) :: acc) q [],
                Qset.add q st.sent_saw )
          in
          let k = st.k + 1 in
          let st = { st with x; decided; sent_saw; k; phase = Wait_lead } in
          advance ~n ~self st d
            (broadcast ~n (Lead { round = k; est = x; hist = st.hist })
            @ saw_sends @ sends)
        end
      end)

  let step ~n ~self st received d =
    let st, ack_sends = record st received in
    let st, sends = advance ~n ~self st d [] in
    (st, ack_sends @ List.rev sends)

  let decision st = Option.map fst st.decided
  let decision_round st = Option.map snd st.decided
  let estimate st = st.x
  let history st = st.hist
  let considered_faulty ~self st = Qhist.considered_faulty ~self st.hist

end

module Full = Make (struct
  let use_distrust = true
  let use_awareness = true
  let variant_name = "A_nuc"
end)

include (Full : S with type message := message)

module Without_distrust = Make (struct
  let use_distrust = false
  let use_awareness = true
  let variant_name = "A_nuc[-distrust]"
end)

module Without_awareness = Make (struct
  let use_distrust = true
  let use_awareness = false
  let variant_name = "A_nuc[-awareness]"
end)

module Without_both = Make (struct
  let use_distrust = false
  let use_awareness = false
  let variant_name = "A_nuc[-distrust,-awareness]"
end)
