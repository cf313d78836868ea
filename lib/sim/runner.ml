open Procset

type metrics = {
  steps_per_process : int array;
  sent : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  reordered : int;
  undelivered_at_stop : int;
  mailbox_hwm : int;
  wall_seconds : float;
}

let pp_metrics fmt m =
  Format.fprintf fmt
    "@[<h>sent %d, delivered %d, dropped %d, duplicated %d, reordered %d, \
     undelivered %d, mailbox hwm %d, %.3f s@]"
    m.sent m.delivered m.dropped m.duplicated m.reordered
    m.undelivered_at_stop m.mailbox_hwm m.wall_seconds

module Make (A : Automaton.S) = struct
  type recorded_step = {
    time : int;
    pid : Pid.t;
    received : A.message Envelope.t option;
    fd : Fd_value.t;
    state_after : A.state;
  }

  type run = {
    pattern : Failure_pattern.t;
    faults : Faults.t;
    states : A.state array;
    steps : recorded_step array;
    step_count : int;
    messages_sent : int;
    undelivered : A.message Envelope.t list;
    stopped_early : bool;
    metrics : metrics;
  }

  type msg_choice =
    | Lambda
    | Oldest
    | Oldest_from of Pid.t
    | Matching of (A.message Envelope.t -> bool)

  type action = { actor : Pid.t; choice : msg_choice }

  exception Script_error of string

  (* Mutable execution context shared by the fair and scripted modes.
     The network itself — mailboxes, send sequencing, fault verdicts,
     traffic counters, the clock — lives in [Transport.Simulated]; the
     ctx keeps what is the scheduler's own: states, the trace, and
     per-process step counters. *)
  type ctx = {
    n : int;
    c_pattern : Failure_pattern.t;
    c_faults : Faults.t;
    fd : Pid.t -> int -> Fd_value.t;
    states : A.state array;
    net : A.message Transport.Simulated.t;
    steps_of : int array; (* per-process step counter *)
    mutable rev_steps : recorded_step list;
    mutable step_count : int;
    wall_start : float;
    record : bool;
  }

  let make_ctx ~pattern ~faults ~fd ~inputs ~record =
    let n = Failure_pattern.n pattern in
    {
      n;
      c_pattern = pattern;
      c_faults = faults;
      fd;
      states = Array.init n (fun p -> A.initial ~n ~self:p (inputs p));
      net = Transport.Simulated.create ~who:A.name ~n ~faults ();
      steps_of = Array.make n 0;
      rev_steps = [];
      step_count = 0;
      wall_start = Clock.now ();
      record;
    }

  let time ctx = Transport.Simulated.now ctx.net

  (* Remove and return the first buffered message for [p] satisfying
     [pred], preserving the order of the others. *)
  let take_matching ctx p pred = Transport.Simulated.take_first ctx.net p pred
  let take_nth ctx p i = Transport.Simulated.take_nth ctx.net p i

  (* One atomic step of process [p] receiving [received] at the current
     time. Advances the clock. *)
  let do_step ctx p received =
    let d = ctx.fd p (time ctx) in
    let state, sends = A.step ~n:ctx.n ~self:p ctx.states.(p) received d in
    ctx.states.(p) <- state;
    Transport.Simulated.send ctx.net ~src:p sends;
    if received <> None then Transport.Simulated.note_delivered ctx.net;
    if ctx.record then
      ctx.rev_steps <-
        { time = time ctx; pid = p; received; fd = d; state_after = state }
        :: ctx.rev_steps;
    ctx.steps_of.(p) <- ctx.steps_of.(p) + 1;
    ctx.step_count <- ctx.step_count + 1;
    Transport.Simulated.tick ctx.net

  let finish ctx ~stopped_early =
    let undelivered = Transport.Simulated.undelivered ctx.net in
    let s = Transport.Simulated.stats ctx.net in
    let metrics =
      {
        steps_per_process = Array.copy ctx.steps_of;
        sent = s.Transport.sent;
        delivered = s.Transport.delivered;
        dropped = s.Transport.dropped;
        duplicated = s.Transport.duplicated;
        reordered = s.Transport.reordered;
        undelivered_at_stop = List.length undelivered;
        mailbox_hwm = s.Transport.mailbox_hwm;
        wall_seconds = Clock.elapsed ctx.wall_start;
      }
    in
    {
      pattern = ctx.c_pattern;
      faults = ctx.c_faults;
      states = Array.copy ctx.states;
      steps = Array.of_list (List.rev ctx.rev_steps);
      step_count = ctx.step_count;
      messages_sent = s.Transport.sent;
      undelivered;
      stopped_early;
      metrics;
    }

  let shuffle rng a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done

  let exec ?(seed = 0) ?(faults = Faults.none) ?max_msg_age
      ?(lambda_prob = 0.15) ?(stop = fun _ _ -> false) ?(record = true)
      ~pattern ~fd ~inputs ~max_steps () =
    let ctx = make_ctx ~pattern ~faults ~fd ~inputs ~record in
    let n = ctx.n in
    let max_msg_age =
      match max_msg_age with Some a -> max 1 a | None -> 4 * n
    in
    let rng = Random.State.make [| seed; 0x5eed |] in
    let order = Array.init n (fun i -> i) in
    let stopped = ref false in
    let states_accessor p = ctx.states.(p) in
    while (not !stopped) && ctx.step_count < max_steps do
      shuffle rng order;
      Array.iter
        (fun p ->
          if
            (not !stopped)
            && ctx.step_count < max_steps
            && not (Failure_pattern.crashed ctx.c_pattern p (time ctx))
          then begin
            let received =
              match Transport.Simulated.peek_oldest ctx.net p with
              | None -> None
              | Some oldest ->
                if time ctx - oldest.Envelope.sent_at >= max_msg_age then
                  Transport.Simulated.recv ctx.net p
                else if Random.State.float rng 1.0 < lambda_prob then None
                else
                  Some (take_nth ctx p
                          (Random.State.int rng
                             (Transport.Simulated.depth ctx.net p)))
            in
            do_step ctx p received
          end)
        order;
      if stop states_accessor (time ctx) then stopped := true
    done;
    finish ctx ~stopped_early:!stopped

  (* One adversary-chosen step of [p]: the actor checks, then the
     message [choice] names ([None]: the oldest pending one, if any). *)
  let scripted_step ctx p choice =
    if not (Pid.valid ~n:ctx.n p) then
      raise (Script_error (Printf.sprintf "invalid actor pid %d" p));
    if Failure_pattern.crashed ctx.c_pattern p (time ctx) then
      raise
        (Script_error
           (Printf.sprintf "actor p%d is crashed at time %d" p (time ctx)));
    let take what pred =
      match take_matching ctx p pred with
      | Some e -> Some e
      | None ->
        raise
          (Script_error
             (Printf.sprintf "no pending message %sfor p%d at time %d" what p
                (time ctx)))
    in
    let received =
      match choice with
      | Some Lambda -> None
      | Some Oldest -> take "" (fun _ -> true)
      | Some (Oldest_from src) ->
        take
          (Printf.sprintf "from p%d " src)
          (fun e -> Pid.equal e.Envelope.src src)
      | Some (Matching pred) -> take "matching predicate " pred
      | None -> take_matching ctx p (fun _ -> true)
    in
    do_step ctx p received

  let exec_script ?(record = true) ?(faults = Faults.none) ~pattern ~fd
      ~inputs ~script () =
    let ctx = make_ctx ~pattern ~faults ~fd ~inputs ~record in
    List.iter (fun { actor; choice } -> scripted_step ctx actor (Some choice))
      script;
    finish ctx ~stopped_early:false

  module Session = struct
    type t = ctx

    let create ?(record = true) ?(faults = Faults.none) ~pattern ~fd ~inputs
        () =
      make_ctx ~pattern ~faults ~fd ~inputs ~record

    let step ?choice ctx p = scripted_step ctx p choice
    let state ctx p = ctx.states.(p)
    let time = time
    let pending ctx p = Transport.Simulated.pending ctx.net p
    let finish ctx = finish ctx ~stopped_early:false
  end

  type replay_step = {
    r_pid : Pid.t;
    r_received : A.message Envelope.t option;
    r_fd : Fd_value.t;
  }

  let to_replay steps =
    List.map
      (fun s -> { r_pid = s.pid; r_received = s.received; r_fd = s.fd })
      steps

  let merge_traces (s0 : recorded_step list) (s1 : recorded_step list) =
    let rec interleave acc (s0 : recorded_step list)
        (s1 : recorded_step list) =
      match s0, s1 with
      | [], rest -> List.rev acc @ rest
      | rest, [] -> List.rev acc @ rest
      | a :: s0', b :: s1' ->
        if a.time <= b.time then interleave (a :: acc) s0' s1
        else interleave (b :: acc) s0 s1'
    in
    to_replay (interleave [] s0 s1)

  let replay ~n ?(faults = Faults.none) ~inputs steps =
    let states = Array.init n (fun p -> A.initial ~n ~self:p (inputs p)) in
    let buffers = Array.init n (fun _ -> Mailbox.create ()) in
    let send_seq = Array.make n 0 in
    let error = ref None in
    let time = ref 1 in
    let fail p fmt =
      Printf.ksprintf
        (fun m ->
          error :=
            Some
              (Printf.sprintf "step of p%d at replay position %d: %s" p !time
                 m))
        fmt
    in
    let take_identity p env =
      Mailbox.remove_first buffers.(p) (fun e ->
          Envelope.same_identity e env
          && A.equal_message e.Envelope.payload env.Envelope.payload)
    in
    List.iter
      (fun { r_pid = p; r_received; r_fd } ->
        if !error = None then begin
          (* Lemma 2.2's applicability: the stepping process exists and
             the message it receives is pending at it. *)
          (if not (Pid.valid ~n p) then fail p "pid out of range"
           else
             match r_received with
             | None -> ()
             | Some env ->
               let { Envelope.src; dst; seq; _ } = env in
               if not (Pid.equal dst p) then
                 fail p "received message p%d->p%d#%d is addressed to p%d" src
                   dst seq dst
               else if Option.is_none (take_identity p env) then
                 fail p "received message p%d->p%d#%d not in buffer" src dst
                   seq);
          if !error = None then begin
            let state, sends = A.step ~n ~self:p states.(p) r_received r_fd in
            states.(p) <- state;
            List.iter
              (fun (dst, payload) ->
                let seq = send_seq.(p) in
                send_seq.(p) <- seq + 1;
                (* Same identity, same send time, same spec: the
                   verdict recomputed here is the one the original
                   execution applied. Displacement only permutes the
                   buffer, which identity matching ignores. *)
                let v = Faults.verdict faults ~src:p ~dst ~seq ~time:!time in
                if v.Faults.copies > 0 then begin
                  let env =
                    { Envelope.src = p; dst; seq; sent_at = !time; payload }
                  in
                  Mailbox.enqueue buffers.(dst) env;
                  if v.Faults.copies = 2 then Mailbox.enqueue buffers.(dst) env
                end)
              sends
          end;
          incr time
        end)
      steps;
    match !error with None -> Ok states | Some msg -> Error msg

  let conformance ?fairness_window ?delivery_bound ~fd ~inputs (run : run) =
    if run.step_count = 0 then
      (* an empty run has no steps to violate any property; Ok by
         definition rather than by a vacuous delivery check *)
      Ok ()
    else if Array.length run.steps = 0 then
      Error
        (Printf.sprintf
           "conformance: run took %d steps but recorded none (executed \
            with ~record:false?); nothing to validate"
           run.step_count)
    else begin
    let n = Failure_pattern.n run.pattern in
    let fairness_window =
      match fairness_window with Some w -> w | None -> 4 * n
    in
    let steps = Array.to_list run.steps in
    let ( let* ) = Result.bind in
    let err fmt = Format.kasprintf (fun m -> Error m) fmt in
    (* (3) crash respect and detector consistency *)
    let* () =
      List.fold_left
        (fun acc (s : recorded_step) ->
          let* () = acc in
          if not (Pid.valid ~n s.pid) then
            err "step at time %d: pid %d out of range" s.time s.pid
          else if Failure_pattern.crashed run.pattern s.pid s.time then
            err "p%d stepped at time %d, at or after its crash" s.pid s.time
          else if not (Fd_value.equal s.fd (fd s.pid s.time)) then
            err "p%d saw a detector value differing from H(p, %d)" s.pid
              s.time
          else Ok ())
        (Ok ()) steps
    in
    (* (4)/(5) strictly increasing times *)
    let* _ =
      List.fold_left
        (fun acc (s : recorded_step) ->
          let* prev = acc in
          if s.time > prev then Ok s.time
          else err "times not strictly increasing at step of p%d (%d)" s.pid
            s.time)
        (Ok 0) steps
    in
    (* (6) fairness surrogate on full windows *)
    let last_time =
      List.fold_left (fun acc (s : recorded_step) -> max acc s.time) 0 steps
    in
    let* () =
      Procset.Pset.fold
        (fun p acc ->
          let* () = acc in
          let step_times =
            List.filter_map
              (fun (s : recorded_step) ->
                if Pid.equal s.pid p then Some s.time else None)
              steps
          in
          let rec gaps prev = function
            | [] ->
              (* allow the trailing partial window *)
              if last_time - prev > fairness_window + n then
                err "correct p%d silent from %d to the end (%d)" p prev
                  last_time
              else Ok ()
            | t :: rest ->
              if t - prev > fairness_window + n then
                err "correct p%d took no step between %d and %d" p prev t
              else gaps t rest
          in
          gaps 0 step_times)
        (Failure_pattern.correct run.pattern)
        (Ok ())
    in
    (* (7) delivery surrogate: leftovers to correct processes are
       recent. Skipped for faulty runs: property (7) is an
       infinite-run promise, and under injected faults the finite
       surrogate is simply false — a reordered head can starve an old
       message past any bound, and a partitioned sender's messages
       are legally read as deliveries delayed past the horizon. *)
    let bound =
      match delivery_bound with Some b -> b | None -> 40 * n
    in
    let* () =
      if not (Faults.is_none run.faults) then Ok ()
      else
        List.fold_left
          (fun acc e ->
            let* () = acc in
            if
              Procset.Pset.mem e.Envelope.dst
                (Failure_pattern.correct run.pattern)
              && last_time - e.Envelope.sent_at > bound
            then
              err "message %a->%a sent at %d still undelivered at %d"
                Pid.pp e.Envelope.src Pid.pp e.Envelope.dst e.Envelope.sent_at
                last_time
            else Ok ())
          (Ok ()) run.undelivered
    in
    (* (1) applicability, via replay under the run's own fault spec *)
    match replay ~n ~faults:run.faults ~inputs (to_replay steps) with
    | Ok _ -> Ok ()
    | Error e -> Error e
    end
end
