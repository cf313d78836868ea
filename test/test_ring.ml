(* The lock-free mailbox and everything stacked on it: Sim.Ring unit
   and model tests, the mutex-vs-ring transport differential battery,
   the Load-level decided-log equivalence at jobs = 1, the snapshot
   store, and the executor's idle/backoff behavior. *)

(* ---------------------------------------------------------------- *)
(* Sim.Ring: unit tests                                              *)
(* ---------------------------------------------------------------- *)

let test_capacity_rounding () =
  Alcotest.(check int) "5 rounds to 8" 8 Sim.Ring.(capacity (create ~capacity:5));
  Alcotest.(check int) "8 stays 8" 8 Sim.Ring.(capacity (create ~capacity:8));
  Alcotest.(check int) "1 clamps to 2" 2 Sim.Ring.(capacity (create ~capacity:1));
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ring.create: capacity must be > 0") (fun () ->
      ignore (Sim.Ring.create ~capacity:0))

let drain r =
  let rec go acc =
    match Sim.Ring.pop r with None -> List.rev acc | Some v -> go (v :: acc)
  in
  go []

let test_fifo_within_capacity () =
  let r = Sim.Ring.create ~capacity:8 in
  for i = 1 to 8 do
    Sim.Ring.push r i
  done;
  Alcotest.(check int) "length" 8 (Sim.Ring.length r);
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3; 4; 5; 6; 7; 8 ] (drain r);
  Alcotest.(check (option int)) "empty after drain" None (Sim.Ring.pop r);
  Alcotest.(check int) "no overflow" 0 (Sim.Ring.overflows r);
  Alcotest.(check int) "no locks on the fast path" 0 (Sim.Ring.lock_ops r)

let test_overflow_preserves_fifo () =
  let r = Sim.Ring.create ~capacity:2 in
  for i = 1 to 20 do
    Sim.Ring.push r i
  done;
  Alcotest.(check bool) "pushes spilled" true (Sim.Ring.overflows r > 0);
  Alcotest.(check bool) "spills took the lock" true (Sim.Ring.lock_ops r > 0);
  Alcotest.(check (list int))
    "global FIFO across the spill boundary"
    (List.init 20 (fun i -> i + 1))
    (drain r)

let test_wraparound_laps () =
  (* a push/pop cadence that laps the ring many times over, mixing
     ring-resident and overflow phases *)
  let r = Sim.Ring.create ~capacity:4 in
  let next = ref 0 and expect = ref 0 in
  for round = 1 to 50 do
    for _ = 1 to 1 + (round mod 7) do
      incr next;
      Sim.Ring.push r !next
    done;
    for _ = 1 to round mod 5 do
      match Sim.Ring.pop r with
      | None -> ()
      | Some v ->
        incr expect;
        Alcotest.(check int) "in-order across laps" !expect v
    done
  done;
  List.iter
    (fun v ->
      incr expect;
      Alcotest.(check int) "tail in order" !expect v)
    (drain r);
  Alcotest.(check int) "conservation: all pushed were popped" !next !expect

let test_to_list_nondestructive () =
  let r = Sim.Ring.create ~capacity:4 in
  for i = 1 to 6 do
    Sim.Ring.push r i
  done;
  Alcotest.(check (list int))
    "to_list sees ring then overflow, oldest first"
    [ 1; 2; 3; 4; 5; 6 ] (Sim.Ring.to_list r);
  Alcotest.(check (list int)) "contents untouched" [ 1; 2; 3; 4; 5; 6 ] (drain r)

(* Sequential model check: any interleaving of pushes and pops agrees
   with a plain FIFO queue, for any capacity — the overflow fallback
   must be unobservable through the push/pop interface. *)
let test_qcheck_queue_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ring = FIFO queue (sequential, any capacity)"
       ~count:300
       QCheck.(pair (int_range 1 9) (small_list bool))
       (fun (capacity, script) ->
         let r = Sim.Ring.create ~capacity in
         let q = Queue.create () in
         let next = ref 0 in
         List.for_all
           (fun is_push ->
             if is_push then (
               incr next;
               Sim.Ring.push r !next;
               Queue.push !next q;
               true)
             else
               match (Sim.Ring.pop r, Queue.take_opt q) with
               | None, None -> true
               | Some a, Some b -> a = b
               | _ -> false)
           script
         && drain r = List.of_seq (Queue.to_seq q)))

(* Two producer domains, one consumer: every message arrives exactly
   once and each producer's stream stays in order — the MPSC contract
   under real parallelism, with a capacity small enough to exercise
   the CAS race and the overflow path together. *)
let test_two_producer_stress () =
  let per_producer = 5_000 in
  let r = Sim.Ring.create ~capacity:8 in
  let producer id =
    Domain.spawn (fun () ->
        for i = 0 to per_producer - 1 do
          Sim.Ring.push r ((id * per_producer) + i)
        done)
  in
  let d0 = producer 0 and d1 = producer 1 in
  let seen = Array.make (2 * per_producer) false in
  let last = [| -1; -1 |] in
  let received = ref 0 in
  while !received < 2 * per_producer do
    match Sim.Ring.pop r with
    | None -> Domain.cpu_relax ()
    | Some v ->
      incr received;
      Alcotest.(check bool) "no duplicate" false seen.(v);
      seen.(v) <- true;
      let id = v / per_producer in
      Alcotest.(check bool)
        (Printf.sprintf "producer %d in order" id)
        true
        (v > last.(id));
      last.(id) <- v
  done;
  Domain.join d0;
  Domain.join d1;
  Alcotest.(check (option int)) "nothing left" None (Sim.Ring.pop r)

(* ---------------------------------------------------------------- *)
(* Transport differential: mutex oracle vs ring                      *)
(* ---------------------------------------------------------------- *)

type op = Send of int * int * int | Tick | Recv of int

module Drive (T : Sim.Transport.CONCURRENT) = struct
  (* Replays a single-domain script and returns every observable:
     the receive sequence, the post-run undelivered set, and the
     conservation counters. *)
  let run ~faults ~capacity script =
    let t = T.create ~capacity ~n:3 ~faults () in
    let recvs = ref [] in
    List.iter
      (function
        | Send (src, dst, v) -> T.send t ~src [ (dst, v) ]
        | Tick -> ignore (T.tick t)
        | Recv p -> (
          match T.recv t p with
          | None -> recvs := (p, None) :: !recvs
          | Some e ->
            T.note_delivered t;
            recvs :=
              (p, Some (e.Sim.Envelope.src, e.Sim.Envelope.seq, e.Sim.Envelope.payload))
              :: !recvs))
      script;
    let undelivered =
      List.sort compare
        (List.map
           (fun e ->
             ( e.Sim.Envelope.dst,
               e.Sim.Envelope.src,
               e.Sim.Envelope.seq,
               e.Sim.Envelope.payload ))
           (T.undelivered t))
    in
    (List.rev !recvs, undelivered, T.stats t)
end

module Drive_mutex = Drive (Sim.Transport.Concurrent)
module Drive_ring = Drive (Sim.Transport.Ring)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun s d v -> Send (s, d, v)) (int_bound 2) (int_bound 2) nat);
        (2, return Tick);
        (4, map (fun p -> Recv p) (int_bound 2));
      ])

let op_print = function
  | Send (s, d, v) -> Printf.sprintf "Send(%d,%d,%d)" s d v
  | Tick -> "Tick"
  | Recv p -> Printf.sprintf "Recv %d" p

let script_arb =
  QCheck.make
    ~print:(fun (cap, drop, dup, ops) ->
      Printf.sprintf "cap=%d drop=%b dup=%b [%s]" cap drop dup
        (String.concat "; " (List.map op_print ops)))
    QCheck.Gen.(
      quad (int_range 1 4) bool bool (list_size (int_bound 60) op_gen))

let conservation (s : Sim.Transport.stats) undelivered_len =
  s.Sim.Transport.sent - s.Sim.Transport.dropped + s.Sim.Transport.duplicated
  = s.Sim.Transport.delivered + undelivered_len

(* The pin: on any fault spec both backends support (no reordering),
   a single-domain script is observationally identical on the mutex
   and ring transports — same receive sequence envelope by envelope,
   same leftover messages, same fault verdicts — and both satisfy the
   conservation law. A tiny ring capacity keeps the overflow path in
   constant use. *)
let test_qcheck_transport_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"mutex and ring transports are equivalent"
       ~count:300 script_arb
       (fun (capacity, drop, dup, script) ->
         let faults =
           if not (drop || dup) then Sim.Faults.none
           else
             Sim.Faults.make
               ~drop:(if drop then 0.2 else 0.)
               ~dup:(if dup then 0.2 else 0.)
               ~seed:7 ()
         in
         let m_recvs, m_left, m_stats =
           Drive_mutex.run ~faults ~capacity script
         in
         let r_recvs, r_left, r_stats = Drive_ring.run ~faults ~capacity script in
         m_recvs = r_recvs && m_left = r_left
         && m_stats.Sim.Transport.sent = r_stats.Sim.Transport.sent
         && m_stats.Sim.Transport.dropped = r_stats.Sim.Transport.dropped
         && m_stats.Sim.Transport.duplicated = r_stats.Sim.Transport.duplicated
         && m_stats.Sim.Transport.delivered = r_stats.Sim.Transport.delivered
         && conservation m_stats (List.length m_left)
         && conservation r_stats (List.length r_left)))

let test_ring_rejects_reorder () =
  let faults = Sim.Faults.make ~reorder:2 ~seed:1 () in
  Alcotest.check_raises "reorder spec rejected"
    (Invalid_argument
       "ring: reorder faults need indexed mailbox insertion; use the mutex \
        transport") (fun () ->
      ignore (Sim.Transport.Ring.create ~n:3 ~faults ()))

(* ---------------------------------------------------------------- *)
(* Load-level differential: same decided log at jobs = 1             *)
(* ---------------------------------------------------------------- *)

let serve_cfg =
  {
    Load.default with
    n = 3;
    clients = 6;
    commands_per_client = 4;
    window = 4;
    target_slots = 20;
    max_steps = 300_000;
    seed = 11;
    continuous_check = true;
    reads = 200;
    read_mode = Load.Read_snapshot;
    publish_every = 4;
  }

(* At jobs = 1 the executor's schedule is fully sequential and
   identical for both transports, so the runs must agree on every
   deterministic observable — including the read digest, which folds
   each served read's (digest, version). *)
let test_load_jobs1_transport_equivalence () =
  let run transport = Load.run_exec ~jobs:1 { serve_cfg with transport } in
  let m = run Sim.Executor.Mutex in
  let r = run Sim.Executor.Ring in
  Alcotest.(check bool) "mutex reached" true m.Load.o_reached;
  Alcotest.(check (list int)) "same decided log" m.Load.o_log r.Load.o_log;
  Alcotest.(check int) "same log base" m.Load.o_log_base r.Load.o_log_base;
  Alcotest.(check int) "same step count" m.Load.o_steps r.Load.o_steps;
  Alcotest.(check int) "same sends" m.Load.o_sent r.Load.o_sent;
  Alcotest.(check int) "same reads served" m.Load.o_reads r.Load.o_reads;
  Alcotest.(check int) "same read digest" m.Load.o_read_digest
    r.Load.o_read_digest;
  Alcotest.(check int) "sequential run needs no pool syncs" 0
    (m.Load.o_sync_ops + r.Load.o_sync_ops);
  (* the contention headline at any job count: the mutex backend locks
     on every send/recv probe, the ring only on overflow spills *)
  Alcotest.(check bool)
    (Printf.sprintf "ring lock_ops (%d) << mutex lock_ops (%d)"
       r.Load.o_lock_ops m.Load.o_lock_ops)
    true
    (r.Load.o_lock_ops * 10 < m.Load.o_lock_ops)

let test_load_jobs1_equivalence_under_faults () =
  let faults = Sim.Faults.make ~drop:0.03 ~dup:0.03 ~seed:5 () in
  let cfg =
    { serve_cfg with faults; target_slots = 10; max_steps = 120_000 }
  in
  let run transport = Load.run_exec ~jobs:1 { cfg with transport } in
  let m = run Sim.Executor.Mutex in
  let r = run Sim.Executor.Ring in
  Alcotest.(check (list int)) "same log under drop/dup" m.Load.o_log
    r.Load.o_log;
  Alcotest.(check int) "same steps under drop/dup" m.Load.o_steps
    r.Load.o_steps;
  Alcotest.(check bool) "mutex not divergent" false m.Load.o_divergent;
  Alcotest.(check bool) "ring not divergent" false r.Load.o_divergent

(* Safety across real interleavings: the ring transport at jobs = 2
   under injected crashes must never let live logs diverge, and the
   staleness bound must hold on every interleaving. *)
let test_load_ring_parallel_safety () =
  let cfg =
    {
      serve_cfg with
      n = 4;
      transport = Sim.Executor.Ring;
      crashes = [ (3, 400) ];
      target_slots = 15;
      ring_capacity = 8;
    }
  in
  let o = Load.run_exec ~jobs:2 cfg in
  Alcotest.(check bool) "ring exec never divergent" false o.Load.o_divergent;
  Alcotest.(check bool) "made progress" true (o.Load.o_slots > 0);
  Alcotest.(check bool)
    (Printf.sprintf "staleness %d within bound %d" o.Load.o_stale_max
       o.Load.o_stale_bound)
    true
    (o.Load.o_stale_max <= o.Load.o_stale_bound)

(* ---------------------------------------------------------------- *)
(* Snapshot: digests, the store, staleness                           *)
(* ---------------------------------------------------------------- *)

(* [build] copies the replica's running digest and folds nothing;
   test_smr pins that digest against the fold over the batches. *)
let test_snapshot_digest () =
  let s =
    Snapshot.build ~version:5 ~base:2 ~ops:4 ~digest:17
      ~batches:[ [ 1; 2 ]; [ 3 ]; [ Smr.noop ] ]
      ~tick:99
  in
  Alcotest.(check int) "build keeps the digest" 17 s.Snapshot.digest;
  Alcotest.(check int) "log_len = version - base" 3 s.Snapshot.log_len;
  Alcotest.(check int) "built_at" 99 s.Snapshot.built_at

let snap v =
  Snapshot.build ~version:v ~base:v ~ops:v ~digest:0 ~batches:[] ~tick:v

let test_store_keep_newest () =
  let st = Snapshot.Store.make () in
  Alcotest.(check bool) "empty store" true (Snapshot.Store.current st = None);
  Alcotest.(check bool) "first publish" true (Snapshot.Store.publish st (snap 3));
  Alcotest.(check bool) "older rejected" false
    (Snapshot.Store.publish st (snap 2));
  Alcotest.(check bool) "equal rejected" false
    (Snapshot.Store.publish st (snap 3));
  Alcotest.(check bool) "newer accepted" true
    (Snapshot.Store.publish st (snap 7));
  (match Snapshot.Store.current st with
  | Some s -> Alcotest.(check int) "newest wins" 7 s.Snapshot.version
  | None -> Alcotest.fail "store emptied");
  Alcotest.(check int) "two successful publishes" 2
    (Snapshot.Store.published st)

let test_store_concurrent_publish () =
  let st = Snapshot.Store.make () in
  let dom k =
    Domain.spawn (fun () ->
        for v = 1 to 200 do
          ignore (Snapshot.Store.publish st (snap ((v * 4) + k)))
        done)
  in
  let ds = List.map dom [ 0; 1; 2; 3 ] in
  List.iter Domain.join ds;
  match Snapshot.Store.current st with
  | Some s ->
    Alcotest.(check int) "store converged to the global max" 803
      s.Snapshot.version
  | None -> Alcotest.fail "no snapshot after concurrent publishes"

let test_snapshot_reads_bounded_staleness () =
  let o = Load.run_exec ~jobs:1 serve_cfg in
  Alcotest.(check int) "all reads served" serve_cfg.Load.reads o.Load.o_reads;
  Alcotest.(check bool) "snapshots published" true (o.Load.o_snapshots > 0);
  Alcotest.(check int) "declared bound" (serve_cfg.Load.publish_every - 1)
    o.Load.o_stale_bound;
  Alcotest.(check bool)
    (Printf.sprintf "staleness %d within bound %d" o.Load.o_stale_max
       o.Load.o_stale_bound)
    true
    (o.Load.o_stale_max <= o.Load.o_stale_bound)

let test_log_reads_exact () =
  let o =
    Load.run_exec ~jobs:1 { serve_cfg with read_mode = Load.Read_log }
  in
  Alcotest.(check int) "all reads served" serve_cfg.Load.reads o.Load.o_reads;
  Alcotest.(check int) "log reads are never stale" (-1) o.Load.o_stale_max;
  Alcotest.(check int) "no staleness budget needed" 0 o.Load.o_stale_bound

(* ---------------------------------------------------------------- *)
(* Executor: idle exactness                                          *)
(* ---------------------------------------------------------------- *)

module Ex = Sim.Executor.Make (Core.Anuc)

(* Every process crashed from tick 0: the executor must conclude the
   system is dead after its bounded rechecks — terminating long
   before the step budget — and report exactly zero steps. *)
let test_idle_executor_exact () =
  let pattern =
    Sim.Failure_pattern.make ~n:3 ~crashes:[ (0, 0); (1, 0); (2, 0) ]
  in
  List.iter
    (fun transport ->
      let out =
        Ex.exec ~jobs:2 ~transport ~pattern
          ~fd:(fun _ _ -> Sim.Fd_value.Unit)
          ~inputs:(fun p -> p mod 2)
          ~max_steps:1_000_000 ()
      in
      let name = Sim.Executor.transport_name transport in
      Alcotest.(check int) (name ^ ": zero steps when all crashed") 0
        out.Ex.step_count;
      (* the run ends by idle detection, not the stop predicate — and
         within the test's own timeout, i.e. long before a 1M-step
         budget could be burned by a busy spin *)
      Alcotest.(check bool) (name ^ ": no stop fired") false
        out.Ex.stopped_early)
    [ Sim.Executor.Mutex; Sim.Executor.Ring ]

let () =
  Alcotest.run "ring"
    [
      ( "ring-queue",
        [
          Alcotest.test_case "capacity rounding" `Quick test_capacity_rounding;
          Alcotest.test_case "FIFO within capacity" `Quick
            test_fifo_within_capacity;
          Alcotest.test_case "overflow preserves FIFO" `Quick
            test_overflow_preserves_fifo;
          Alcotest.test_case "wraparound laps" `Quick test_wraparound_laps;
          Alcotest.test_case "to_list nondestructive" `Quick
            test_to_list_nondestructive;
          test_qcheck_queue_model;
          Alcotest.test_case "two-producer stress" `Quick
            test_two_producer_stress;
        ] );
      ( "transport-differential",
        [
          test_qcheck_transport_differential;
          Alcotest.test_case "ring rejects reorder specs" `Quick
            test_ring_rejects_reorder;
          Alcotest.test_case "jobs=1 transport equivalence" `Quick
            test_load_jobs1_transport_equivalence;
          Alcotest.test_case "jobs=1 equivalence under faults" `Quick
            test_load_jobs1_equivalence_under_faults;
          Alcotest.test_case "ring parallel safety" `Quick
            test_load_ring_parallel_safety;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "digest fold" `Quick test_snapshot_digest;
          Alcotest.test_case "store keeps newest" `Quick test_store_keep_newest;
          Alcotest.test_case "concurrent publish" `Quick
            test_store_concurrent_publish;
          Alcotest.test_case "snapshot reads bounded staleness" `Quick
            test_snapshot_reads_bounded_staleness;
          Alcotest.test_case "log reads exact" `Quick test_log_reads_exact;
        ] );
      ( "executor-idle",
        [
          Alcotest.test_case "idle executor exact" `Quick
            test_idle_executor_exact;
        ] );
    ]
