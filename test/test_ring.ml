(* The lock-free mailbox and everything stacked on it: Sim.Ring unit
   and model tests, the simulator-vs-ring transport differential
   battery, the Load-level pins at jobs = 1, the snapshot store, and
   the executor's idle/backoff behavior. *)

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
(* Transport differential: the simulator's transport vs the ring     *)
(* ---------------------------------------------------------------- *)

type op = Send of int * int * int | Tick | Recv of int

(* What replaying a script needs of a transport, over [int] payloads
   and three processes. *)
module type NET = sig
  type t

  val create : capacity:int -> faults:Sim.Faults.t -> t
  val send : t -> src:int -> (int * int) list -> unit
  val recv : t -> int -> int Sim.Envelope.t option
  val tick : t -> unit
  val depth : t -> int -> int
  val note_delivered : t -> unit
  val undelivered : t -> int Sim.Envelope.t list
  val stats : t -> Sim.Transport.stats
end

module Simulated_net : NET = struct
  module T = Sim.Transport.Simulated

  type t = int T.t

  let create ~capacity:_ ~faults = T.create ~n:3 ~faults ()
  let send = T.send
  let recv = T.recv
  let tick = T.tick
  let depth = T.depth
  let note_delivered = T.note_delivered
  let undelivered = T.undelivered
  let stats = T.stats
end

module Ring_net : NET = struct
  module T = Sim.Transport.Ring

  type t = int T.t

  (* the ring's clock starts at 0 and the simulator's at 1: tick once
     so both stamp (and fault) the same sends with the same time *)
  let create ~capacity ~faults =
    let pattern = Sim.Failure_pattern.failure_free ~n:3 in
    let t = T.create ~capacity ~pattern ~faults () in
    ignore (T.tick t);
    t

  let send = T.send
  let recv = T.recv
  let tick t = ignore (T.tick t)
  let depth = T.depth
  let note_delivered = T.note_delivered
  let undelivered = T.undelivered
  let stats = T.stats
end

let conservation (s : Sim.Transport.stats) pending =
  s.Sim.Transport.sent - s.Sim.Transport.dropped - s.Sim.Transport.discarded
  + s.Sim.Transport.duplicated
  = s.Sim.Transport.delivered + pending

module Drive (T : NET) = struct
  (* Replays a single-domain script, then drains every mailbox, and
     returns every observable: each receive (the script's, then the
     drain's), the depths and conservation at the script's end, and
     the final counters. *)
  let run ~faults ~capacity script =
    let t = T.create ~capacity ~faults in
    let recvs = ref [] in
    let recv p =
      let got = T.recv t p in
      if got <> None then T.note_delivered t;
      recvs := (p, got) :: !recvs;
      got
    in
    List.iter
      (function
        | Send (src, dst, v) -> T.send t ~src [ (dst, v) ]
        | Tick -> T.tick t
        | Recv p -> ignore (recv p))
      script;
    let depths = List.init 3 (T.depth t) in
    let pending = List.length (T.undelivered t) in
    let conserved =
      conservation (T.stats t) pending
      && List.fold_left ( + ) 0 depths = pending
    in
    for p = 0 to 2 do
      while recv p <> None do
        ()
      done
    done;
    let stats = T.stats t in
    let drained = T.undelivered t = [] && conservation stats 0 in
    (* lock and CAS counts are the ring's own cost, not observables of
       the model *)
    let stats = { stats with Sim.Transport.lock_ops = 0; cas_retries = 0 } in
    (List.rev !recvs, depths, conserved && drained, stats)
end

module Drive_sim = Drive (Simulated_net)
module Drive_ring = Drive (Ring_net)

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
    ~print:(fun ((cap, reorder), (drop, dup), ops) ->
      Printf.sprintf "cap=%d reorder=%d drop=%b dup=%b [%s]" cap reorder drop
        dup
        (String.concat "; " (List.map op_print ops)))
    QCheck.Gen.(
      triple
        (pair (int_range 1 4) (int_range 0 3))
        (pair bool bool)
        (list_size (int_bound 60) op_gen))

(* The pin: on every fault spec, reordering included, a single-domain
   script is observationally identical on the simulator's transport
   and on the ring — the same receives envelope by envelope (sender,
   seq, send time, payload), the same depths, the same drop, dup,
   reorder, delivery and high-water counters — and both conserve
   messages. A tiny ring capacity keeps the overflow path in constant
   use. *)
let test_qcheck_transport_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"simulated and ring transports are equivalent"
       ~count:1000 script_arb
       (fun ((capacity, reorder), (drop, dup), script) ->
         let faults =
           Sim.Faults.make
             ~drop:(if drop then 0.2 else 0.)
             ~dup:(if dup then 0.2 else 0.)
             ~reorder ~seed:7 ()
         in
         let s_recvs, s_depths, s_ok, s_stats =
           Drive_sim.run ~faults ~capacity script
         in
         let r_recvs, r_depths, r_ok, r_stats =
           Drive_ring.run ~faults ~capacity script
         in
         s_ok && r_ok && s_recvs = r_recvs && s_depths = r_depths
         && s_stats = r_stats))

(* Discarding sends to crashed processes is invisible to the live
   ones. The same single-domain script runs on a ring given a random
   crash pattern and on one given a crash-free pattern, and a process
   receives only while it is live, as under the executor. Every
   receive matches envelope by envelope (so every kept copy has the
   seq and fault verdict it would have had), every send is counted on
   both sides, and each ring conserves messages with its own discarded
   term. *)
let test_qcheck_discard_invisible =
  let module R = Sim.Transport.Ring in
  let print_crash = function None -> "-" | Some c -> string_of_int c in
  let arb =
    QCheck.make
      ~print:(fun (crashes, ops) ->
        Printf.sprintf "crashes [%s] [%s]"
          (String.concat "; " (List.map print_crash crashes))
          (String.concat "; " (List.map op_print ops)))
      QCheck.Gen.(
        pair
          (list_repeat 3 (opt (int_bound 12)))
          (list_size (int_bound 80) op_gen))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"discarded sends are invisible to live receivers"
       ~count:1000 arb
       (fun (crashes, script) ->
         let pattern =
           Sim.Failure_pattern.make ~n:3
             ~crashes:
               (List.concat
                  (List.mapi
                     (fun p c -> Option.to_list (Option.map (fun c -> (p, c)) c))
                     crashes))
         in
         let faults = Sim.Faults.make ~drop:0.2 ~dup:0.2 ~reorder:2 ~seed:3 () in
         let run given =
           let t = R.create ~capacity:2 ~pattern:given ~faults () in
           ignore (R.tick t);
           let recvs = ref [] in
           List.iter
             (function
               | Send (src, dst, v) -> R.send t ~src [ (dst, v) ]
               | Tick -> ignore (R.tick t)
               | Recv p ->
                 if not (Sim.Failure_pattern.crashed pattern p (R.now t))
                 then begin
                   let got = R.recv t p in
                   if got <> None then R.note_delivered t;
                   recvs := (p, got) :: !recvs
                 end)
             script;
           let stats = R.stats t in
           ( List.rev !recvs,
             stats,
             conservation stats (List.length (R.undelivered t)) )
         in
         let d_recvs, d_stats, d_ok = run pattern in
         let k_recvs, k_stats, k_ok =
           run (Sim.Failure_pattern.failure_free ~n:3)
         in
         d_ok && k_ok && d_recvs = k_recvs
         && d_stats.Sim.Transport.sent = k_stats.Sim.Transport.sent
         && k_stats.Sim.Transport.discarded = 0))

(* Two sending domains and the receiving one under drop, dup and
   reorder faults, through a ring small enough to spill: every message
   not dropped arrives, twice when duplicated, and nothing else does —
   placement in the receiver's mailbox happens while the senders are
   still pushing. *)
let test_ring_transport_two_senders () =
  let module T = Sim.Transport.Ring in
  let per_sender = 5_000 in
  let faults = Sim.Faults.make ~drop:0.1 ~dup:0.1 ~reorder:3 ~seed:3 () in
  let pattern = Sim.Failure_pattern.failure_free ~n:3 in
  let t = T.create ~capacity:8 ~pattern ~faults () in
  let finished = Atomic.make 0 in
  let sender src =
    Domain.spawn (fun () ->
        for i = 1 to per_sender do
          T.send t ~src [ (0, i) ]
        done;
        Atomic.incr finished)
  in
  let d1 = sender 1 and d2 = sender 2 in
  let copies = Hashtbl.create (2 * per_sender) in
  let receive () =
    match T.recv t 0 with
    | None -> false
    | Some e ->
      T.note_delivered t;
      let key = (e.Sim.Envelope.src, e.Sim.Envelope.payload) in
      Hashtbl.replace copies key
        (1 + Option.value ~default:0 (Hashtbl.find_opt copies key));
      true
  in
  while Atomic.get finished < 2 do
    if not (receive ()) then Domain.cpu_relax ()
  done;
  Domain.join d1;
  Domain.join d2;
  while receive () do
    ()
  done;
  let s = T.stats t in
  let twice = Hashtbl.fold (fun _ c n -> if c = 2 then n + 1 else n) copies 0 in
  Alcotest.(check int) "every send counted" (2 * per_sender) s.Sim.Transport.sent;
  Alcotest.(check int) "one key per surviving message"
    (s.Sim.Transport.sent - s.Sim.Transport.dropped)
    (Hashtbl.length copies);
  Alcotest.(check int) "duplicates arrive twice" s.Sim.Transport.duplicated twice;
  let sane (src, v) c =
    c <= 2 && (src = 1 || src = 2) && v >= 1 && v <= per_sender
  in
  Alcotest.(check bool) "no key beyond two copies or out of range" true
    (Hashtbl.fold (fun key c ok -> ok && sane key c) copies true);
  Alcotest.(check bool) "conservation, nothing left" true
    (conservation s 0 && T.undelivered t = [])

(* ---------------------------------------------------------------- *)
(* Load-level pins: served runs at jobs = 1                          *)
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

(* Pins of [Load.run_exec ~jobs:1]: at jobs = 1 the schedule is fully
   sequential, so these observables are a pure function of the config
   and the oracle's draws. The log is pinned by the MD5 of its comma-joined values.
   Reads are pinned by count, snapshots and staleness rather than by
   [o_read_digest], which XOR-folds one value per read of a chunk and
   so cancels to 0 on chunks of an even number of equal reads. *)
type pin = {
  log_md5 : string;
  steps : int;
  sent : int;
  reads : int;
  snapshots : int;
  stale_max : int;
  commit_p50 : float;
  commit_p99 : float;
}

let log_md5 (o : Load.outcome) =
  Digest.to_hex
    (Digest.string (String.concat "," (List.map string_of_int o.Load.o_log)))

let check_pin name cfg pin =
  let o = Load.run_exec ~jobs:1 cfg in
  let what field = Printf.sprintf "%s: %s" name field in
  Alcotest.(check string) (what "log MD5") pin.log_md5 (log_md5 o);
  Alcotest.(check int) (what "steps") pin.steps o.Load.o_steps;
  Alcotest.(check int) (what "sends") pin.sent o.Load.o_sent;
  Alcotest.(check int) (what "reads served") pin.reads o.Load.o_reads;
  Alcotest.(check int) (what "snapshots") pin.snapshots o.Load.o_snapshots;
  Alcotest.(check int) (what "stale_max") pin.stale_max o.Load.o_stale_max;
  Alcotest.(check (float 0.)) (what "commit p50") pin.commit_p50 o.Load.o_p50;
  Alcotest.(check (float 0.)) (what "commit p99") pin.commit_p99 o.Load.o_p99;
  Alcotest.(check bool) (what "not divergent") false o.Load.o_divergent;
  Alcotest.(check int) (what "no pool syncs at jobs = 1") 0 o.Load.o_sync_ops

let test_load_jobs1_transport_equivalence () =
  check_pin "serve_cfg" serve_cfg
    {
      log_md5 = "063b26ede8c62ecc6d59cbea9a88b4fb";
      steps = 5_184;
      sent = 3_961;
      reads = 200;
      snapshots = 5;
      stale_max = 3;
      commit_p50 = 192.;
      commit_p99 = 384.;
    }

(* The same pins under faults: drop/dup on [serve_cfg], reorder
   displacement on [serve_cfg], and test_serve's "executor under
   faults" config (drop, dup and reorder 2) run at jobs = 1. *)
let test_load_jobs1_equivalence_under_faults () =
  check_pin "serve_cfg + drop/dup"
    {
      serve_cfg with
      faults = Sim.Faults.make ~drop:0.03 ~dup:0.03 ~seed:5 ();
      target_slots = 10;
      max_steps = 120_000;
    }
    {
      log_md5 = "5f5beb29fba43f770743ce9d05d8dd68";
      steps = 120_000;
      sent = 88_601;
      reads = 200;
      snapshots = 108;
      stale_max = 3;
      commit_p50 = 384.;
      commit_p99 = 576.;
    };
  check_pin "serve_cfg + reorder 3"
    {
      serve_cfg with
      faults = Sim.Faults.make ~reorder:3 ~seed:9 ();
      target_slots = 15;
    }
    {
      log_md5 = "a2965872124c748cea4e15c5d829abe4";
      steps = 4_032;
      sent = 3_079;
      reads = 200;
      snapshots = 4;
      stale_max = 3;
      commit_p50 = 192.;
      commit_p99 = 384.;
    };
  check_pin "test_serve's executor-under-faults config"
    {
      Load.default with
      n = 4;
      clients = 12;
      commands_per_client = 6;
      batch = 2;
      pipeline = 2;
      window = 4;
      retain = 8;
      horizon = 16;
      target_slots = 15;
      max_steps = 150_000;
      seed = 7;
      continuous_check = true;
      faults = Sim.Faults.make ~drop:0.02 ~dup:0.02 ~reorder:2 ~seed:5 ();
    }
    {
      log_md5 = "0816ec1e1fc83681e757be02c6b88350";
      steps = 150_000;
      sent = 66_261;
      reads = 0;
      snapshots = 0;
      stale_max = -1;
      commit_p50 = 512.;
      commit_p99 = 2_304.;
    }

(* Safety across real interleavings: the ring transport at jobs = 2
   under injected crashes must never let live logs diverge, and the
   staleness bound must hold on every interleaving. *)
let test_load_ring_parallel_safety () =
  let cfg =
    {
      serve_cfg with
      n = 4;
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
(* Executor: idle exactness, discarded sends                         *)
(* ---------------------------------------------------------------- *)

module Ex = Sim.Executor.Make (Core.Anuc)

(* Every process crashed from tick 0: the executor must conclude the
   system is dead after its bounded rechecks — terminating long
   before the step budget — and report exactly zero steps. *)
let test_idle_executor_exact () =
  let pattern =
    Sim.Failure_pattern.make ~n:3 ~crashes:[ (0, 0); (1, 0); (2, 0) ]
  in
  let out =
    Ex.exec ~jobs:2 ~pattern
      ~fd:(fun _ _ -> Sim.Fd_value.Unit)
      ~inputs:(fun p -> p mod 2)
      ~max_steps:1_000_000 ()
  in
  Alcotest.(check int) "zero steps when all crashed" 0 out.Ex.step_count;
  (* the run ends by idle detection, not the stop predicate — and
     within the test's own timeout, i.e. long before a 1M-step budget
     could be burned by a busy spin *)
  Alcotest.(check bool) "no stop fired" false out.Ex.stopped_early

(* The executor hands its failure pattern to the ring. Over random
   crash patterns and fault rates, at jobs 1 and 2, the conservation
   law with the discarded term holds at the end of the run, a
   crash-free run discards nothing, and at jobs 1, where the run is a
   pure function of its inputs, a process crashed in the first half
   of the run is sent to after its crash and those sends are
   discarded. *)
let test_qcheck_executor_discard_conservation =
  let arb =
    QCheck.make
      ~print:(fun (jobs, n, crashes, (drop, dup), seed) ->
        Printf.sprintf
          "jobs %d, n %d, crashes [%s], drop %.2f dup %.2f, seed %d" jobs n
          (String.concat "; "
             (List.map (fun (p, c) -> Printf.sprintf "p%d@%d" p c) crashes))
          drop dup seed)
      QCheck.Gen.(
        let* jobs = int_range 1 2 in
        let* n = int_range 3 5 in
        let* crash_times = list_repeat (n - 1) (opt (int_bound 3_000)) in
        let crashes =
          List.concat
            (List.mapi
               (fun i c -> Option.to_list (Option.map (fun c -> (i + 1, c)) c))
               crash_times)
        in
        let* faults = pair (oneofl [ 0.; 0.05 ]) (oneofl [ 0.; 0.05 ]) in
        let* seed = int_bound 1_000 in
        return (jobs, n, crashes, faults, seed))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"executor discards sends to crashed processes"
       ~count:40 arb
       (fun (jobs, n, crashes, (drop, dup), seed) ->
         let pattern = Sim.Failure_pattern.make ~n ~crashes in
         let oracle =
           Fd.Oracle.pair
             (Fd.Oracle.omega ~seed pattern)
             (Fd.Oracle.sigma_nu_plus ~seed pattern)
         in
         let out =
           Ex.exec ~jobs ~pattern
             ~faults:(Sim.Faults.make ~drop ~dup ~seed ())
             ~fd:oracle.Fd.Oracle.query
             ~inputs:(fun p -> p mod 2)
             ~max_steps:6_000 ()
         in
         let s = out.Ex.stats in
         let early_crash =
           List.exists (fun (_, c) -> 2 * c < out.Ex.final_time) crashes
         in
         conservation s out.Ex.pending
         && (crashes <> [] || s.Sim.Transport.discarded = 0)
         && (jobs > 1 || (not early_crash) || s.Sim.Transport.discarded > 0)))

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
          test_qcheck_discard_invisible;
          test_qcheck_executor_discard_conservation;
          Alcotest.test_case "two senders under faults" `Quick
            test_ring_transport_two_senders;
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
