let noop : Consensus.Value.t = -1

module Batch = struct
  let bits = 14
  let max_command = (1 lsl bits) - 1
  let max_len = 4

  (* [len] in the top bits, then the commands: a batch of k commands
     occupies 14k + ceil(log2 max_len) bits, well inside a 63-bit
     int. The empty batch is [noop]. *)
  let encode = function
    | [] -> noop
    | cmds ->
      let len = List.length cmds in
      if len > max_len then
        invalid_arg
          (Printf.sprintf "Smr.Batch.encode: %d commands > max %d" len
             max_len);
      List.fold_left
        (fun acc c ->
          if c < 0 || c > max_command then
            invalid_arg
              (Printf.sprintf
                 "Smr.Batch.encode: command %d outside [0, %d]" c
                 max_command);
          (acc lsl bits) lor c)
        len cmds

  let decode v =
    if Consensus.Value.equal v noop then []
    else begin
      (* the length field of the true k sits exactly at bit 14k; for
         any smaller shift the quotient still contains command bits
         and exceeds [max_len], so the ascending scan is unambiguous *)
      let rec find_len k =
        if k > max_len then
          invalid_arg (Printf.sprintf "Smr.Batch.decode: %d is not a batch" v)
        else if v lsr (bits * k) = k then k
        else find_len (k + 1)
      in
      let k = find_len 1 in
      List.init k (fun i -> (v lsr (bits * (k - 1 - i))) land max_command)
    end
end

module type CONSENSUS = sig
  include Sim.Automaton.S with type input = Consensus.Value.t

  val decision : state -> Consensus.Value.t option
end

module type TUNING = sig
  val batch : int
  val pipeline : int
  val window : int
  val retain : int
  val horizon : int
end

module Defaults : TUNING = struct
  let batch = 1
  let pipeline = 1
  let window = max_int
  let retain = max_int
  let horizon = 64
end

module type S = sig
  type message

  include
    Sim.Automaton.S
      with type input = Consensus.Value.t list
       and type message := message

  val log : state -> Consensus.Value.t list
  val batches : state -> Consensus.Value.t list list
  val log_base : state -> int
  val snapshot_digest : state -> int
  val log_digest : state -> int
  val snapshot : state -> tick:int -> Snapshot.t
  val slots_decided : state -> int
  val commands_applied : state -> int
  val current_slot : state -> int
  val open_instances : state -> int
  val pending_len : state -> int
  val pp_message : Format.formatter -> message -> unit
  val equal_message : message -> message -> bool
end

let check_tuning (module T : TUNING) =
  if T.batch < 1 || T.batch > Batch.max_len then
    Error (Printf.sprintf "Smr: batch must be in [1, %d]" Batch.max_len)
  else if T.pipeline < 1 then Error "Smr: pipeline must be >= 1"
  else if T.window < 1 then Error "Smr: window must be >= 1"
  else if T.retain < 1 then Error "Smr: retain must be >= 1"
    (* instances for the whole pipeline window must be admissible: a
       peer's messages for slot [st.slot + pipeline - 1] arrive while
       we may still be at [st.slot] *)
  else if T.horizon < T.pipeline then Error "Smr: horizon must be >= pipeline"
  else Ok ()

module Make_tuned (T : TUNING) (C : CONSENSUS) : S = struct
  module Imap = Map.Make (Int)
  module Vset = Set.Make (Int)

  let () =
    match check_tuning (module T) with
    | Ok () -> ()
    | Error msg -> invalid_arg msg

  type message =
    | Slot of { slot : int; inner : C.message; frontier : int }
        (** [frontier]: the sender's first undecided slot *)
    | Forward of Consensus.Value.t list
        (** a non-leader routing pending commands to the leader *)

  type input = Consensus.Value.t list

  type state = {
    (* the pending-command queue: an amortized-O(1) two-list FIFO.
       Fixes the [List.nth_opt commands slot] bug — commands are
       dequeued when proposed and re-queued at the front when a
       competing proposal wins their slot, so nothing is lost and
       nothing is silently re-proposed by position. *)
    pending_f : Consensus.Value.t list; (* front, oldest first *)
    pending_b : Consensus.Value.t list; (* back, newest first *)
    pending_n : int;
    pending_set : Vset.t; (* values pending or in flight (dedup gate) *)
    inflight : Consensus.Value.t list Imap.t; (* slot -> our proposal *)
    inflight_n : int; (* total commands across [inflight] *)
    instances : C.state Imap.t; (* per-slot consensus states *)
    (* the retained applied suffix, as an amortized-O(1) functional
       queue of per-slot batches; slots below [base] are compacted
       into [digest] *)
    app_f : Consensus.Value.t list list; (* oldest first *)
    app_b : Consensus.Value.t list list; (* newest first *)
    app_n : int; (* retained batch (slot) count *)
    applied_set : Vset.t; (* non-noop values in the retained suffix *)
    decided_count : int; (* slots decided locally; survives compaction *)
    applied_cmds : int; (* non-noop commands applied; survives compaction *)
    base : int; (* first retained slot *)
    digest : int; (* rolling digest of the compacted prefix *)
    full_digest : int; (* rolling digest of every stored batch *)
    slot : int; (* first undecided slot *)
    (* heard.(p): the highest [frontier] replica p has reported, a
       monotone max (0 until p is heard from; our own entry is unused,
       [slot] stands in for it) *)
    heard : int array; (* never mutated: replaced on change *)
    floor : int; (* instances below this slot are retired *)
    rotate : int; (* round-robin cursor over open instances *)
    fwd_slot : int; (* slot at the last leader forward *)
    fwd_leader : Procset.Pid.t; (* addressee of the last forward *)
  }

  let name = "SMR(" ^ C.name ^ ")"

  let encode_batch cmds =
    if T.batch = 1 then match cmds with [] -> noop | [ c ] -> c | _ -> assert false
    else Batch.encode cmds

  let decode_batch v =
    if T.batch = 1 then (if Consensus.Value.equal v noop then [] else [ v ])
    else Batch.decode v

  let initial ~n ~self:_ commands =
    {
      pending_f = commands;
      pending_b = [];
      pending_n = List.length commands;
      pending_set =
        List.fold_left (fun s c -> Vset.add c s) Vset.empty commands;
      inflight = Imap.empty;
      inflight_n = 0;
      instances = Imap.empty;
      app_f = [];
      app_b = [];
      app_n = 0;
      applied_set = Vset.empty;
      decided_count = 0;
      applied_cmds = 0;
      base = 0;
      digest = 0;
      full_digest = 0;
      slot = 0;
      heard = Array.make n 0;
      floor = 0;
      rotate = 0;
      fwd_slot = -1;
      fwd_leader = -1;
    }

  (* ---------------- pending-queue primitives ---------------- *)

  let pending_push_back st c =
    {
      st with
      pending_b = c :: st.pending_b;
      pending_n = st.pending_n + 1;
      pending_set = Vset.add c st.pending_set;
    }

  (* re-queue lost commands ahead of everything else, preserving their
     order; their values are already members of [pending_set] *)
  let pending_push_front_list st cs =
    {
      st with
      pending_f = cs @ st.pending_f;
      pending_n = st.pending_n + List.length cs;
    }

  let rec pending_pop st =
    match st.pending_f with
    | c :: rest ->
      Some (c, { st with pending_f = rest; pending_n = st.pending_n - 1 })
    | [] -> (
      match st.pending_b with
      | [] -> None
      | b -> pending_pop { st with pending_f = List.rev b; pending_b = [] })

  let normalize st =
    if st.pending_f = [] && st.pending_b <> [] then
      { st with pending_f = List.rev st.pending_b; pending_b = [] }
    else st

  (* Dequeue the next proposal batch: up to [T.batch] commands, capped
     by the in-flight window. Values already applied (they reached the
     log through another replica's slot) are discarded on the way. *)
  let take_batch st =
    let budget = min T.batch (T.window - st.inflight_n) in
    let rec take acc k st =
      if k = 0 then (List.rev acc, st)
      else
        match pending_pop st with
        | None -> (List.rev acc, st)
        | Some (c, st') ->
          if Vset.mem c st'.applied_set then
            take acc k
              { st' with pending_set = Vset.remove c st'.pending_set }
          else take (c :: acc) (k - 1) st'
    in
    if budget <= 0 then ([], st) else take [] budget st

  (* ---------------- instance management ---------------- *)

  let ensure ~n ~self st s =
    if Imap.mem s st.instances then st
    else begin
      let batch, st = take_batch st in
      let inst = C.initial ~n ~self (encode_batch batch) in
      let st =
        if batch = [] then st
        else
          {
            st with
            inflight = Imap.add s batch st.inflight;
            inflight_n = st.inflight_n + List.length batch;
          }
      in
      { st with instances = Imap.add s inst st.instances }
    end

  let step_instance ~n ~self st s received d =
    let st = ensure ~n ~self st s in
    let inst = Imap.find s st.instances in
    let inst', sends = C.step ~n ~self inst received d in
    let st =
      if inst' == inst then st
      else { st with instances = Imap.add s inst' st.instances }
    in
    ( st,
      List.map
        (fun (dst, inner) ->
          (dst, Slot { slot = s; inner; frontier = st.slot }))
        sends )

  (* Reports only ever raise an entry, so dropped, duplicated and
     reordered messages are harmless. *)
  let hear st p frontier =
    if frontier <= st.heard.(p) then st
    else begin
      let heard = Array.copy st.heard in
      heard.(p) <- frontier;
      { st with heard }
    end

  (* ---------------- harvest / compaction / retirement ---------------- *)

  (* the step of both running digests: [apply_decided] folds each
     stored batch into [full_digest] and [compact] folds the same
     batch into [digest] when it leaves the suffix, so [full_digest]
     is [digest] folded over the retained suffix *)
  let mix = Snapshot.mix

  let apply_decided st v =
    let decided = decode_batch v in
    (* exactly-once application: a value already in the retained
       suffix is filtered out. Decisions are agreed and every replica
       runs the same tuning, so the filter is identical everywhere
       and live logs stay consistent. *)
    let fresh =
      List.filter (fun c -> not (Vset.mem c st.applied_set)) decided
    in
    let stored = if fresh = [] then [ noop ] else fresh in
    let st =
      {
        st with
        app_b = stored :: st.app_b;
        app_n = st.app_n + 1;
        full_digest = List.fold_left mix st.full_digest stored;
        applied_set =
          List.fold_left (fun s c -> Vset.add c s) st.applied_set fresh;
        applied_cmds = st.applied_cmds + List.length fresh;
      }
    in
    (* settle our own proposal for this slot: applied commands leave
       the dedup gate, lost ones go back to the front of the queue *)
    let st =
      match Imap.find_opt st.slot st.inflight with
      | None -> st
      | Some mine ->
        let st =
          {
            st with
            inflight = Imap.remove st.slot st.inflight;
            inflight_n = st.inflight_n - List.length mine;
          }
        in
        let settled, lost =
          List.partition (fun c -> Vset.mem c st.applied_set) mine
        in
        let st =
          {
            st with
            pending_set =
              List.fold_left
                (fun s c -> Vset.remove c s)
                st.pending_set settled;
          }
        in
        pending_push_front_list st lost
    in
    { st with decided_count = st.decided_count + 1; slot = st.slot + 1 }

  let rec compact st =
    if st.app_n <= T.retain then st
    else
      match st.app_f with
      | batch :: rest ->
        compact
          {
            st with
            app_f = rest;
            app_n = st.app_n - 1;
            base = st.base + 1;
            digest = List.fold_left mix st.digest batch;
            applied_set =
              List.fold_left
                (fun s c ->
                  if Consensus.Value.equal c noop then s else Vset.remove c s)
                st.applied_set batch;
          }
      | [] -> compact { st with app_f = List.rev st.app_b; app_b = [] }

  (* A slot every replica has reported deciding needs no instance
     anywhere: no replica can still be waiting on its rounds. A
     replica never heard from counts as 0, so a starved or crashed one
     freezes this minimum, and the horizon takes over: decided
     instances [horizon] slots behind are retired regardless. *)
  let retire_floor ~self st =
    let lowest = ref st.slot in
    Array.iteri
      (fun p r -> if p <> self && r < !lowest then lowest := r)
      st.heard;
    max (st.slot - T.horizon) !lowest

  (* The floor is monotone but can jump, so walk every slot it crossed
     since the last retirement — O(slots crossed), not O(instances). *)
  let retire ~self st =
    let floor = retire_floor ~self st in
    let rec drop s instances =
      if s >= floor then instances else drop (s + 1) (Imap.remove s instances)
    in
    if floor <= st.floor then st
    else { st with instances = drop st.floor st.instances; floor }

  let rec harvest st =
    match Imap.find_opt st.slot st.instances with
    | None -> st
    | Some inst -> (
      match C.decision inst with
      | None -> st
      | Some v -> harvest (apply_decided st v))

  let harvest_and_gc ~self st =
    let from_slot = st.slot in
    let st = retire ~self (harvest st) in
    if st.slot = from_slot then st else compact st

  (* ---------------- scheduling within one host step ---------------- *)

  (* Open (and announce) every missing instance of the pipeline
     window [slot, slot + pipeline). *)
  let open_window ~n ~self st d =
    let rec go s st acc =
      if s >= st.slot + T.pipeline then (st, List.concat (List.rev acc))
      else if Imap.mem s st.instances then go (s + 1) st acc
      else
        let st, sends = step_instance ~n ~self st s None d in
        go (s + 1) st (sends :: acc)
    in
    go st.slot st []

  (* One lambda step for a rotating open instance other than the
     current slot (which already gets every lambda delivery):
     replicas that have decided a slot keep serving it until it
     retires, so slower replicas can still assemble quorums for it,
     and pipelined future instances keep making local progress. *)
  let pump ~n ~self st d =
    let m =
      Imap.cardinal st.instances
      - if Imap.mem st.slot st.instances then 1 else 0
    in
    if m = 0 then (st, [])
    else begin
      let idx = st.rotate mod m in
      let st = { st with rotate = st.rotate + 1 } in
      let s =
        let i = ref idx and found = ref (-1) in
        (try
           Imap.iter
             (fun k _ ->
               if k <> st.slot then
                 if !i = 0 then begin
                   found := k;
                   raise Exit
                 end
                 else decr i)
             st.instances
         with Exit -> ());
        !found
      in
      if s < 0 then (st, []) else step_instance ~n ~self st s None d
    end

  let rec leader_of = function
    | Sim.Fd_value.Leader l -> Some l
    | Sim.Fd_value.Pair (a, b) -> (
      match leader_of a with Some _ as r -> r | None -> leader_of b)
    | _ -> None

  (* Route pending commands to the leader: only the leader's proposals
     win slots once the detector has stabilized, so a non-leader that
     merely re-proposes its own commands would starve them forever.
     Throttled to one forward per (slot, leader) — an unthrottled
     forward on every lambda step floods the leader's mailbox faster
     than it can drain it and starves the consensus traffic. *)
  let forward ~self st d =
    let st = normalize st in
    match leader_of d with
    | Some l
      when (not (Procset.Pid.equal l self))
           && (st.slot > st.fwd_slot || not (Procset.Pid.equal l st.fwd_leader))
      ->
      let rec peek acc k = function
        | [] -> List.rev acc
        | _ when k = 0 -> List.rev acc
        | c :: rest ->
          if Vset.mem c st.applied_set then peek acc k rest
          else peek (c :: acc) (k - 1) rest
      in
      let cmds = peek [] T.batch st.pending_f in
      if cmds = [] then (st, [])
      else ({ st with fwd_slot = st.slot; fwd_leader = l }, [ (l, Forward cmds) ])
    | _ -> (st, [])

  (* [a @ b], without copying [a] when [b] is empty *)
  let append a b = match b with [] -> a | _ -> a @ b

  let step ~n ~self st received d =
    let from_slot = st.slot in
    let st, sends =
      match received with
      | Some env -> (
        match env.Sim.Envelope.payload with
        | Forward cmds ->
          let st =
            List.fold_left
              (fun st c ->
                if Vset.mem c st.pending_set || Vset.mem c st.applied_set
                then st
                else pending_push_back st c)
              st cmds
          in
          (st, [])
        | Slot { slot; inner; frontier } ->
          let st = hear st env.Sim.Envelope.src frontier in
          (* retired below the floor, refused above the join ceiling:
             both bound [instances]. A refused message is lost for
             good: the sender's instance sent it once and will not
             send it again *)
          if slot < st.floor || slot > st.slot + T.horizon then (st, [])
          else
            let inner_env = { env with Sim.Envelope.payload = inner } in
            step_instance ~n ~self st slot (Some inner_env) d)
      | None -> step_instance ~n ~self st st.slot None d
    in
    let st = harvest_and_gc ~self st in
    (* forward after the harvest, so a command that just lost its slot
       (re-queued at the front) reaches the leader before it is
       re-proposed locally *)
    let st, fwd_sends =
      if Option.is_none received || st.slot > from_slot then
        forward ~self st d
      else (st, [])
    in
    let st, open_sends = open_window ~n ~self st d in
    let st, pump_sends = pump ~n ~self st d in
    (st, append sends (append fwd_sends (append open_sends pump_sends)))

  (* ---------------- observers ---------------- *)

  let batches st = st.app_f @ List.rev st.app_b
  let log st = List.concat (batches st)
  let log_base st = st.base
  let snapshot_digest st = st.digest

  (* the log-mode read primitive *)
  let log_digest st = st.full_digest

  let snapshot st ~tick =
    Snapshot.build ~version:st.decided_count ~base:st.base
      ~ops:st.applied_cmds ~digest:st.full_digest ~batches:(batches st) ~tick
  let slots_decided st = st.decided_count
  let commands_applied st = st.applied_cmds
  let current_slot st = st.slot
  let open_instances st = Imap.cardinal st.instances
  let pending_len st = st.pending_n

  let pp_message fmt = function
    | Slot { slot; inner; frontier } ->
      Format.fprintf fmt "[slot %d, frontier %d] %a" slot frontier
        C.pp_message inner
    | Forward cmds ->
      Format.fprintf fmt "[forward %a]"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
           Format.pp_print_int)
        cmds

  let equal_message a b =
    match a, b with
    | Slot a, Slot b ->
      a.slot = b.slot && a.frontier = b.frontier
      && C.equal_message a.inner b.inner
    | Forward a, Forward b -> (
      try List.for_all2 Consensus.Value.equal a b
      with Invalid_argument _ -> false)
    | _ -> false
end

module Make (C : CONSENSUS) : S = Make_tuned (Defaults) (C)

module Over_anuc : S = Make (struct
  include Core.Anuc

  let decision = Core.Anuc.decision
end)

module Over_stack : S = Make (struct
  include Core.Stack

  type message = Core.Stack.message

  let pp_message = Core.Stack.pp_message
  let equal_message = Core.Stack.equal_message
  let step = Core.Stack.step
  let decision = Core.Stack.decision
end)
