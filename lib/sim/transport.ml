open Procset

module type S = sig
  type 'a t

  val send : 'a t -> src:Pid.t -> (Pid.t * 'a) list -> unit
  val recv : 'a t -> Pid.t -> 'a Envelope.t option
  val now : 'a t -> int
end

type stats = {
  sent : int;
  dropped : int;
  duplicated : int;
  reordered : int;
  delivered : int;
  discarded : int;
  mailbox_hwm : int;
  lock_ops : int;
  cas_retries : int;
}

(* Queue [env] [displace] places short of [box]'s tail, as a reorder
   verdict asks; true when it lands ahead of queued messages. Both
   transports place arrivals with it, [Simulated] at send time and
   [Ring] when the receiver drains its ring. *)
let place box env ~displace =
  let len = Mailbox.length box in
  let at = max 0 (len - displace) in
  if at < len then begin
    Mailbox.insert_nth box at env;
    true
  end
  else begin
    Mailbox.enqueue box env;
    false
  end

module Simulated = struct
  type 'a t = {
    s_n : int;
    s_faults : Faults.t;
    s_who : string;
    buffers : 'a Envelope.t Mailbox.t array;
        (* per-destination pending messages, oldest first *)
    send_seq : int array; (* per-sender message counter *)
    mutable s_time : int;
    mutable s_sent : int;
    mutable s_delivered : int;
    mutable s_dropped : int;
    mutable s_duplicated : int;
    mutable s_reordered : int;
    mutable s_hwm : int; (* mailbox depth high-water mark *)
  }

  let create ?(who = "sim") ~n ~faults () =
    {
      s_n = n;
      s_faults = faults;
      s_who = who;
      buffers = Array.init n (fun _ -> Mailbox.create ());
      send_seq = Array.make n 0;
      s_time = 1;
      s_sent = 0;
      s_delivered = 0;
      s_dropped = 0;
      s_duplicated = 0;
      s_reordered = 0;
      s_hwm = 0;
    }

  let now t = t.s_time
  let tick t = t.s_time <- t.s_time + 1
  let n t = t.s_n

  let send t ~src payloads =
    List.iter
      (fun (dst, payload) ->
        if not (Pid.valid ~n:t.s_n dst) then
          invalid_arg
            (Printf.sprintf "%s: send to invalid pid %d" t.s_who dst);
        let seq = t.send_seq.(src) in
        t.send_seq.(src) <- seq + 1;
        let env = { Envelope.src; dst; seq; sent_at = t.s_time; payload } in
        t.s_sent <- t.s_sent + 1;
        let v = Faults.verdict t.s_faults ~src ~dst ~seq ~time:t.s_time in
        if v.Faults.copies = 0 then t.s_dropped <- t.s_dropped + 1
        else begin
          let buf = t.buffers.(dst) in
          if place buf env ~displace:v.Faults.displace then
            t.s_reordered <- t.s_reordered + 1;
          if v.Faults.copies = 2 then begin
            t.s_duplicated <- t.s_duplicated + 1;
            Mailbox.enqueue buf env
          end;
          let depth = Mailbox.length buf in
          if depth > t.s_hwm then t.s_hwm <- depth
        end)
      payloads

  let recv t p = Mailbox.dequeue_oldest t.buffers.(p)
  let depth t p = Mailbox.length t.buffers.(p)
  let peek_oldest t p = Mailbox.peek_oldest t.buffers.(p)
  let take_nth t p i = Mailbox.remove_nth t.buffers.(p) i
  let take_first t p pred = Mailbox.remove_first t.buffers.(p) pred
  let note_delivered t = t.s_delivered <- t.s_delivered + 1
  let pending t p = Mailbox.to_list t.buffers.(p)

  let undelivered t =
    Array.to_list t.buffers |> List.concat_map Mailbox.to_list

  let stats t =
    {
      sent = t.s_sent;
      dropped = t.s_dropped;
      duplicated = t.s_duplicated;
      reordered = t.s_reordered;
      delivered = t.s_delivered;
      discarded = 0;
      mailbox_hwm = t.s_hwm;
      lock_ops = 0;
      cas_retries = 0;
    }
end

(* The lock-free backend: one {!Ring} per destination. Producers push
   each message with its fault verdict's displacement: [(env, displace)]
   for the first copy, [(env, 0)] for a duplicate, which [Simulated]
   enqueues at the tail. The consumer applies the displacement: [recv p]
   moves every published entry off [p]'s ring, in push order, into a
   mailbox only the domain stepping [p] touches (like the ring's head),
   landing each [displace] places short of the tail.

   On one domain this is exactly [Simulated]: no receive happens
   between a send and the drain that places it, so each arrival meets
   the queue length [Simulated] saw at send time.

   A send to a process the run's failure pattern has crashed by the
   send time is discarded: that process never steps, so never receives,
   again. The copy still takes its [seq] and counts as sent, so every
   other message keeps its seq and fault verdict. *)
module Ring_ = struct
  type 'a t = {
    r_n : int;
    r_faults : Faults.t;
    r_who : string;
    r_pattern : Failure_pattern.t;
    rings : ('a Envelope.t * int) Ring.t array;
    boxes : 'a Envelope.t Mailbox.t array; (* consumer-owned *)
    seqs : int Atomic.t array; (* per-sender message counter *)
    time : int Atomic.t;
    r_sent : int Atomic.t;
    r_delivered : int Atomic.t;
    r_dropped : int Atomic.t;
    r_duplicated : int Atomic.t;
    r_reordered : int Atomic.t;
    r_discarded : int Atomic.t;
    r_hwm : int Atomic.t;
  }

  let default_capacity = 1024

  let create ?(who = "ring") ?(capacity = default_capacity) ~pattern ~faults
      () =
    let n = Failure_pattern.n pattern in
    {
      r_n = n;
      r_faults = faults;
      r_who = who;
      r_pattern = pattern;
      rings = Array.init n (fun _ -> Ring.create ~capacity);
      boxes = Array.init n (fun _ -> Mailbox.create ());
      seqs = Array.init n (fun _ -> Atomic.make 0);
      time = Atomic.make 0;
      r_sent = Atomic.make 0;
      r_delivered = Atomic.make 0;
      r_dropped = Atomic.make 0;
      r_duplicated = Atomic.make 0;
      r_reordered = Atomic.make 0;
      r_discarded = Atomic.make 0;
      r_hwm = Atomic.make 0;
    }

  let now t = Atomic.get t.time
  let tick t = Atomic.fetch_and_add t.time 1 + 1

  (* A sender reads the destination's box length unsynchronized: exact
     on one domain, a snapshot otherwise, like [Ring.length]. *)
  let depth t p = Ring.length t.rings.(p) + Mailbox.length t.boxes.(p)

  let rec bump_max a v =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then bump_max a v

  let send t ~src payloads =
    List.iter
      (fun (dst, payload) ->
        if not (Pid.valid ~n:t.r_n dst) then
          invalid_arg
            (Printf.sprintf "%s: send to invalid pid %d" t.r_who dst);
        let seq = Atomic.fetch_and_add t.seqs.(src) 1 in
        let time = Atomic.get t.time in
        Atomic.incr t.r_sent;
        if Failure_pattern.crashed t.r_pattern dst time then
          Atomic.incr t.r_discarded
        else
          let v = Faults.verdict t.r_faults ~src ~dst ~seq ~time in
          if v.Faults.copies = 0 then Atomic.incr t.r_dropped
          else begin
            let env = { Envelope.src; dst; seq; sent_at = time; payload } in
            let ring = t.rings.(dst) in
            Ring.push ring (env, v.Faults.displace);
            if v.Faults.copies = 2 then begin
              Atomic.incr t.r_duplicated;
              Ring.push ring (env, 0)
            end;
            bump_max t.r_hwm (depth t dst)
          end)
      payloads

  let recv t p =
    let ring = t.rings.(p) and box = t.boxes.(p) in
    let rec drain () =
      match Ring.pop ring with
      | None -> ()
      | Some (env, displace) ->
        if place box env ~displace then Atomic.incr t.r_reordered;
        drain ()
    in
    drain ();
    Mailbox.dequeue_oldest box

  let note_delivered t = Atomic.incr t.r_delivered

  let undelivered t =
    List.concat
      (List.init t.r_n (fun p ->
           Mailbox.to_list t.boxes.(p) @ List.map fst (Ring.to_list t.rings.(p))))

  let stats t =
    {
      sent = Atomic.get t.r_sent;
      dropped = Atomic.get t.r_dropped;
      duplicated = Atomic.get t.r_duplicated;
      reordered = Atomic.get t.r_reordered;
      delivered = Atomic.get t.r_delivered;
      discarded = Atomic.get t.r_discarded;
      mailbox_hwm = Atomic.get t.r_hwm;
      lock_ops =
        Array.fold_left (fun acc r -> acc + Ring.lock_ops r) 0 t.rings;
      cas_retries =
        Array.fold_left (fun acc r -> acc + Ring.cas_retries r) 0 t.rings;
    }
end

module Ring = Ring_
