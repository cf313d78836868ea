open Procset

type message =
  | Est of { round : int; est : Value.t; ts : int }
  | Prop of { round : int; value : Value.t }
  | Ack of { round : int }
  | Nack of { round : int }
  | Decide of { value : Value.t }

module Imap = Map.Make (Int)

(* round -> sender -> payload *)
type 'a store = 'a Imap.t Imap.t

let store_add round sender v s =
  let inner = Option.value ~default:Imap.empty (Imap.find_opt round s) in
  Imap.add round (Imap.add sender v inner) s

let store_round round s =
  Option.value ~default:Imap.empty (Imap.find_opt round s)

type phase =
  | Start
  | Collect_estimates  (** coordinator, phase 2 *)
  | Await_proposal  (** everyone, phase 3 *)
  | Collect_replies  (** coordinator, phase 4 *)

type state = {
  x : Value.t;
  ts : int;  (** round in which [x] was last adopted from a proposal *)
  k : int;
  phase : phase;
  decided : (Value.t * int) option;
  decide_forwarded : bool;
  ests : (Value.t * int) store;
  props : Value.t store;
  replies : bool store;  (** true = ack, false = nack *)
}

type input = Value.t

let name = "CT-<>S"

let initial ~n:_ ~self:_ x =
  {
    x;
    ts = 0;
    k = 0;
    phase = Start;
    decided = None;
    decide_forwarded = false;
    ests = Imap.empty;
    props = Imap.empty;
    replies = Imap.empty;
  }

let coordinator ~n k = (k - 1) mod n

let suspects_of_fd = function
  | Sim.Fd_value.Suspects s -> s
  | Sim.Fd_value.Pair (_, Sim.Fd_value.Suspects s) -> s
  | v ->
    invalid_arg
      (Format.asprintf "CT-<>S: detector value %a has no suspect list"
         Sim.Fd_value.pp v)

let broadcast ~n msg = List.map (fun q -> (q, msg)) (Pid.all ~n)

let record st = function
  | None -> st
  | Some env -> (
    let src = env.Sim.Envelope.src in
    match env.Sim.Envelope.payload with
    | Est { round; est; ts } ->
      { st with ests = store_add round src (est, ts) st.ests }
    | Prop { round; value } ->
      { st with props = store_add round src value st.props }
    | Ack { round } -> { st with replies = store_add round src true st.replies }
    | Nack { round } ->
      { st with replies = store_add round src false st.replies }
    | Decide { value } -> (
      match st.decided with
      | Some _ -> st
      | None -> { st with decided = Some (value, st.k) }))

(* Begin round [k+1]: send the timestamped estimate to the new
   coordinator. *)
let begin_round ~n st sends =
  let k = st.k + 1 in
  let c = coordinator ~n k in
  let st = { st with k; phase = Collect_estimates } in
  (st, (c, Est { round = k; est = st.x; ts = st.ts }) :: sends)

let rec advance ~n ~self st d sends =
  (* forward a received decision exactly once (reliable broadcast) *)
  let st, sends =
    match st.decided with
    | Some (v, _) when not st.decide_forwarded ->
      ( { st with decide_forwarded = true },
        broadcast ~n (Decide { value = v }) @ sends )
    | Some _ | None -> (st, sends)
  in
  match st.phase with
  | Start ->
    let st, sends = begin_round ~n st sends in
    advance ~n ~self st d sends
  | Collect_estimates ->
    let c = coordinator ~n st.k in
    if not (Pid.equal self c) then begin
      let st = { st with phase = Await_proposal } in
      advance ~n ~self st d sends
    end
    else begin
      let inner = store_round st.k st.ests in
      if 2 * Imap.cardinal inner <= n then (st, sends)
      else begin
        (* propose the estimate with the highest timestamp *)
        let v, _ =
          Imap.fold
            (fun _ (est, ts) (best, best_ts) ->
              if ts > best_ts then (est, ts) else (best, best_ts))
            inner (st.x, -1)
        in
        let st = { st with phase = Await_proposal } in
        advance ~n ~self st d
          (broadcast ~n (Prop { round = st.k; value = v }) @ sends)
      end
    end
  | Await_proposal -> (
    let c = coordinator ~n st.k in
    match Imap.find_opt c (store_round st.k st.props) with
    | Some v ->
      (* adopt, stamp, acknowledge *)
      let st = { st with x = v; ts = st.k } in
      let sends = (c, Ack { round = st.k }) :: sends in
      if Pid.equal self c then begin
        let st = { st with phase = Collect_replies } in
        advance ~n ~self st d sends
      end
      else begin
        let st, sends = begin_round ~n st sends in
        advance ~n ~self st d sends
      end
    | None ->
      if Pset.mem c (suspects_of_fd d) && not (Pid.equal self c) then begin
        (* refuse and move on *)
        let sends = (c, Nack { round = st.k }) :: sends in
        let st, sends = begin_round ~n st sends in
        advance ~n ~self st d sends
      end
      else (st, sends))
  | Collect_replies ->
    let inner = store_round st.k st.replies in
    if 2 * Imap.cardinal inner <= n then (st, sends)
    else begin
      let all_acks = Imap.for_all (fun _ ack -> ack) inner in
      let st =
        if all_acks && st.decided = None then
          { st with decided = Some (st.x, st.k) }
        else st
      in
      let st, sends = begin_round ~n st sends in
      advance ~n ~self st d sends
    end

let step ~n ~self st received d =
  let st = record st received in
  let st, sends = advance ~n ~self st d [] in
  (st, List.rev sends)

let pp_message fmt = function
  | Est { round; est; ts } ->
    Format.fprintf fmt "EST(%d, %a, ts=%d)" round Value.pp est ts
  | Prop { round; value } ->
    Format.fprintf fmt "PROP(%d, %a)" round Value.pp value
  | Ack { round } -> Format.fprintf fmt "ACK(%d)" round
  | Nack { round } -> Format.fprintf fmt "NACK(%d)" round
  | Decide { value } -> Format.fprintf fmt "DECIDE(%a)" Value.pp value

let equal_message a b =
  match a, b with
  | Est x, Est y ->
    x.round = y.round && Value.equal x.est y.est && x.ts = y.ts
  | Prop x, Prop y -> x.round = y.round && Value.equal x.value y.value
  | Ack x, Ack y -> x.round = y.round
  | Nack x, Nack y -> x.round = y.round
  | Decide x, Decide y -> Value.equal x.value y.value
  | (Est _ | Prop _ | Ack _ | Nack _ | Decide _), _ -> false

let decision st = Option.map fst st.decided
let decision_round st = Option.map snd st.decided
