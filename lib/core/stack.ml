type message = Gossip of Dagsim.Dag.t | Cons of Anuc.message

type state = { t : T_sigma_plus.state; c : Anuc.state }
type input = Consensus.Value.t

let name = "Stack(T_{Sigma-nu->Sigma-nu+} || A_nuc)"

let initial ~n ~self v =
  { t = T_sigma_plus.initial ~n ~self (); c = Anuc.initial ~n ~self v }

let split_fd = function
  | Sim.Fd_value.Pair ((Sim.Fd_value.Leader _ as l), (Sim.Fd_value.Quorum _ as q))
    -> (l, q)
  | v ->
    invalid_arg
      (Format.asprintf "Stack: failure detector value %a is not \
                        (leader, quorum)" Sim.Fd_value.pp v)

let reroute env payload = { env with Sim.Envelope.payload }

let step ~n ~self st received d =
  let leader, sigma_nu = split_fd d in
  let t_in, c_in =
    match received with
    | None -> (None, None)
    | Some env -> (
      match env.Sim.Envelope.payload with
      | Gossip g -> (Some (reroute env g), None)
      | Cons m -> (None, Some (reroute env m)))
  in
  (* One step of the transformation layer, sampling Sigma-nu. *)
  let t, t_sends = T_sigma_plus.step ~n ~self st.t t_in sigma_nu in
  (* One step of A_nuc, seeing Omega paired with the emulated
     Sigma-nu+ output. *)
  let anuc_fd =
    Sim.Fd_value.Pair (leader, Sim.Fd_value.Quorum (T_sigma_plus.output t))
  in
  let c, c_sends = Anuc.step ~n ~self st.c c_in anuc_fd in
  let sends =
    List.map (fun (dst, g) -> (dst, Gossip g)) t_sends
    @ List.map (fun (dst, m) -> (dst, Cons m)) c_sends
  in
  ({ t; c }, sends)

let pp_message fmt = function
  | Gossip g -> Format.fprintf fmt "gossip %a" Dagsim.Dag.pp g
  | Cons m -> Anuc.pp_message fmt m

let equal_message a b =
  match a, b with
  | Gossip g, Gossip g' -> T_sigma_plus.equal_message g g'
  | Cons m, Cons m' -> Anuc.equal_message m m'
  | (Gossip _ | Cons _), _ -> false

let decision st = Anuc.decision st.c
let decision_round st = Anuc.decision_round st.c
let emulated_quorum st = T_sigma_plus.output st.t
