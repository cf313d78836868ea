(* The traced pass's view of the library: the same public modules,
   wrapped so that every automaton step, oracle query and property
   check lands in an accumulator. Wrappers delegate to the wrapped
   module unchanged, so a traced run takes exactly the untraced run's
   schedule; bookkeeping sits outside the timed region. *)

let oracle = Probe.acc ()
let anuc = Probe.acc ()
let mr = Probe.acc ()
let smr = Probe.acc ()
let observe = Probe.acc ()
let read = Probe.acc ()
let props = Probe.acc ()

let anuc_lambda = ref 0

(* sends by message kind: Lead, Rep, Prop, Saw, Ack *)
let anuc_sends = Array.make 5 0
let anuc_kinds = [| "lead"; "rep"; "prop"; "saw"; "ack" |]
let anuc_decisions = ref 0
let anuc_rounds = ref 0
let smr_idle = ref 0
let smr_sends = ref 0

let reset () =
  List.iter Probe.reset [ oracle; anuc; mr; smr; observe; read; props ];
  List.iter (fun r -> r := 0)
    [ anuc_lambda; anuc_decisions; anuc_rounds; smr_idle; smr_sends ];
  Array.fill anuc_sends 0 5 0

let anuc_sent () = Array.fold_left ( + ) 0 anuc_sends

module Anuc = struct
  include Core.Anuc

  let kind = function Lead _ -> 0 | Rep _ -> 1 | Prop _ -> 2 | Saw _ -> 3 | Ack _ -> 4

  let step ~n ~self st received d =
    let t0 = Probe.now () in
    let ((st', sends) as r) = Core.Anuc.step ~n ~self st received d in
    Probe.add anuc t0;
    (match received with None -> incr anuc_lambda | Some _ -> ());
    List.iter
      (fun (_, m) ->
        let k = kind m in
        anuc_sends.(k) <- anuc_sends.(k) + 1)
      sends;
    (match (Core.Anuc.decision st, Core.Anuc.decision_round st') with
    | None, Some round ->
      incr anuc_decisions;
      anuc_rounds := !anuc_rounds + round
    | _ -> ());
    r
end

module Mr = struct
  include Consensus.Mr.With_quorum

  let step ~n ~self st received d =
    let t0 = Probe.now () in
    let r = Consensus.Mr.With_quorum.step ~n ~self st received d in
    Probe.add mr t0;
    r
end

module Smr_timed (S : Smr.S) = struct
  include S

  let step ~n ~self st received d =
    let t0 = Probe.now () in
    let ((_, sends) as r) = S.step ~n ~self st received d in
    Probe.add smr t0;
    (match (received, sends) with None, [] -> incr smr_idle | _ -> ());
    smr_sends := !smr_sends + List.length sends;
    r
end

let timed_oracle (q : Procset.Pid.t -> int -> Sim.Fd_value.t) p t =
  let t0 = Probe.now () in
  let v = q p t in
  Probe.add oracle t0;
  v

let timed_check check st =
  let t0 = Probe.now () in
  let r = check st in
  Probe.add props t0;
  r
