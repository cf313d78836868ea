type transport = Ring

(* Bounded exponential backoff for the liveness re-check: spin with
   [Domain.cpu_relax] first (attempt 1), then sleep doubling spans
   capped at 1 ms — so a transiently idle executor neither burns a
   core nor oversleeps a wakeup. *)
let backoff attempt =
  if attempt <= 1 then
    for _ = 1 to 64 do
      Domain.cpu_relax ()
    done
  else
    let span = 1e-6 *. Float.of_int (1 lsl min 10 (attempt - 1)) in
    Unix.sleepf (Float.min 1e-3 span)

(* Rounds an idle executor re-checks for progress before concluding
   every process has crashed. Bounded, so termination stays prompt;
   > 1, so a slow domain finishing its published writes late cannot
   be mistaken for global death by one unlucky zero-step round. *)
let idle_rechecks = 3

(* Consecutive steps one process takes per round: smaller slices
   interleave more finely at more synchronization cost. *)
let slice = 64

(* Every [lambda_every]-th step of a slice receives lambda even when
   messages are pending, so a flooded process still takes the
   spontaneous steps protocols need for timeouts and
   retransmissions. *)
let lambda_every = 8

module Make (A : Automaton.S) = struct
  type outcome = {
    states : A.state array;
    step_count : int;
    final_time : int;
    stopped_early : bool;
    stats : Transport.stats;
    pending : int;
    wall_seconds : float;
    sync_ops : int;
  }

  module T = Transport.Ring

  let exec ?jobs ?shards ?transport:_ ?capacity ?(faults = Faults.none)
      ?(stop = fun _ _ -> false) ~pattern ~fd ~inputs ~max_steps () =
    let jobs =
      match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
    in
    let shards = match shards with Some s -> max 1 s | None -> jobs in
    let n = Failure_pattern.n pattern in
    let shards = max 1 (min shards n) in
    let net : A.message T.t =
      T.create ~who:A.name ?capacity ~pattern ~faults ()
    in
    let states = Array.init n (fun p -> A.initial ~n ~self:p (inputs p)) in
    (* Per-shard step counters: shard [s] owns processes
       [p with p mod shards = s], and only the domain that claimed
       shard [s] this round writes [shard_steps.(s)] — merged at
       the round join instead of contending on one global atomic
       per step (the old [steps_done] hot spot). *)
    let shard_steps = Array.make shards 0 in
    let total () = Array.fold_left ( + ) 0 shard_steps in
    let sync_ops = ref 0 in
    let wall_start = Clock.now () in
    (* One slice of process [p] on whichever domain claimed its
       shard. Only this domain touches [states.(p)] and [p]'s
       transport mailbox until the round's join, which publishes both
       before [stop] or the next round reads them. Returns the steps
       actually taken, which the caller credits to the process's
       shard. *)
    let run_slice p budget =
      let continue = ref true in
      let k = ref 0 in
      while !continue && !k < budget do
        let t = T.tick net in
        if Failure_pattern.crashed pattern p t then continue := false
        else begin
          let received =
            if (!k + 1) mod lambda_every = 0 then None else T.recv net p
          in
          let d = fd p t in
          let st, sends = A.step ~n ~self:p states.(p) received d in
          states.(p) <- st;
          T.send net ~src:p sends;
          if received <> None then T.note_delivered net;
          incr k
        end
      done;
      !k
    in
    (* Step every live process of shard [s] for up to [slice] steps
       each. The shard is the unit of work-stealing: a domain that
       drains its own shard claims the next unclaimed one off the
       pool counter, but processes never migrate within a round, so
       each ring mailbox keeps a single consumer per round. *)
    let run_shard s =
      let local = ref 0 in
      let p = ref s in
      while !p < n do
        if not (Failure_pattern.crashed pattern !p (T.now net)) then
          local := !local + run_slice !p slice;
        p := !p + shards
      done;
      shard_steps.(s) <- shard_steps.(s) + !local
    in
    (* Endgame (or jobs = 1): step processes in pid order on this
       domain with an exact step budget, so [step_count] can never
       exceed [max_steps]. The parallel path only runs full rounds
       ([rem >= n * slice]), which cannot overshoot either. *)
    let run_round_seq rem =
      let budget = ref rem in
      for p = 0 to n - 1 do
        if
          !budget > 0
          && not (Failure_pattern.crashed pattern p (T.now net))
        then begin
          let took = run_slice p (min slice !budget) in
          budget := !budget - took;
          shard_steps.(p mod shards) <- shard_steps.(p mod shards) + took
        end
      done
    in
    let stopped = ref false in
    let live = ref true in
    let idle = ref 0 in
    while !live && (not !stopped) && total () < max_steps do
      let before = total () in
      let rem = max_steps - before in
      if jobs <= 1 || rem < n * slice then run_round_seq rem
      else begin
        Pool.run ~jobs shards (fun ~worker:_ s -> run_shard s);
        (* the pool's shared counter is the round's only global
           synchronization: one claim per shard plus the join *)
        sync_ops := !sync_ops + shards + 1
      end;
      if total () = before then begin
        (* a zero-step round normally means every process has
           crashed (live processes always take lambda steps); relax
           then re-check a bounded number of times instead of
           spinning on the transport *)
        incr idle;
        if !idle > idle_rechecks then live := false else backoff !idle
      end
      else begin
        idle := 0;
        if stop (fun p -> states.(p)) (T.now net) then stopped := true
      end
    done;
    {
      states = Array.copy states;
      step_count = total ();
      final_time = T.now net;
      stopped_early = !stopped;
      stats = T.stats net;
      pending = List.length (T.undelivered net);
      wall_seconds = Clock.elapsed wall_start;
      sync_ops = !sync_ops;
    }
end
