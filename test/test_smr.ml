(* Tests for the replicated-log library: multiplexed per-slot
   consensus instances over one simulated network. *)
open Procset
module R = Sim.Runner.Make (Smr.Over_anuc)

let commands_of p = List.init 10 (fun s -> (100 * (s + 1)) + p)

let run_smr ?(seed = 0) ?(n = 4) ?(crashes = []) ?(target_slots = 4)
    ?(max_steps = 30000) () =
  let pattern = Sim.Failure_pattern.make ~n ~crashes in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~seed pattern)
      (Fd.Oracle.sigma_nu_plus ~seed pattern)
  in
  let correct = Sim.Failure_pattern.correct pattern in
  let run =
    R.exec ~seed ~record:false ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs:commands_of ~max_steps
      ~stop:(fun st _ ->
        Pset.for_all
          (fun p -> Smr.Over_anuc.slots_decided (st p) >= target_slots)
          correct)
      ()
  in
  (pattern, run)

(* The fundamental SMR property: live replicas hold identical logs (one
   may trail the other; the shorter must be a prefix of the longer). *)
let check_prefix_consistency ~pattern (run : R.run) =
  let correct = Sim.Failure_pattern.correct pattern in
  let logs =
    Pset.fold
      (fun p acc -> (p, Smr.Over_anuc.log run.R.states.(p)) :: acc)
      correct []
  in
  List.iter
    (fun (p, lp) ->
      List.iter
        (fun (q, lq) ->
          let rec prefix a b =
            match a, b with
            | [], _ -> true
            | _, [] -> false
            | x :: a', y :: b' -> Consensus.Value.equal x y && prefix a' b'
          in
          let shorter, longer =
            if List.length lp <= List.length lq then (lp, lq) else (lq, lp)
          in
          Alcotest.(check bool)
            (Printf.sprintf "p%d and p%d logs prefix-consistent" p q)
            true (prefix shorter longer))
        logs)
    logs

let test_smr_no_crashes () =
  let pattern, run = run_smr ~target_slots:5 () in
  Alcotest.(check bool) "reached the slot target" true run.R.stopped_early;
  check_prefix_consistency ~pattern run;
  (* every decided command was submitted by somebody — the pending
     queue decouples slot numbers from submission order (a command
     lost to a competing proposal is re-queued for a later slot), so
     membership in the union of the streams is the right validity
     check, not positional agreement *)
  let submitted v =
    List.exists (fun p -> List.mem v (commands_of p)) (Pid.all ~n:4)
  in
  let some_log = Smr.Over_anuc.log run.R.states.(0) in
  List.iteri
    (fun s v ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d command %d was submitted" s v)
        true
        (Consensus.Value.equal v Smr.noop || submitted v))
    some_log;
  (* and nothing is applied twice *)
  let applied = List.filter (fun v -> v <> Smr.noop) some_log in
  Alcotest.(check int) "no duplicate application"
    (List.length applied)
    (List.length (List.sort_uniq compare applied))

let test_smr_with_crashes () =
  let pattern, run =
    run_smr ~seed:2 ~n:5 ~crashes:[ (4, 200); (3, 900) ] ~target_slots:4 ()
  in
  Alcotest.(check bool) "reached the slot target" true run.R.stopped_early;
  check_prefix_consistency ~pattern run

let test_smr_minority_correct () =
  (* three of five replicas crash: uniform replication would need a
     majority, nonuniform keeps going *)
  let pattern, run =
    run_smr ~seed:5 ~n:5
      ~crashes:[ (2, 150); (3, 400); (4, 700) ]
      ~target_slots:3 ~max_steps:40000 ()
  in
  Alcotest.(check bool) "reached the slot target" true run.R.stopped_early;
  check_prefix_consistency ~pattern run

let test_smr_seeds_sweep () =
  List.iter
    (fun seed ->
      let pattern, run =
        run_smr ~seed ~n:4 ~crashes:[ (3, 300) ] ~target_slots:3 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d reached the target" seed)
        true run.R.stopped_early;
      check_prefix_consistency ~pattern run)
    [ 0; 1; 2; 3 ]

(* Each replica submits one command; every submitted command is
   applied exactly once (losers of a slot are re-queued and forwarded
   to the leader, where the old positional lookup silently dropped
   them), and replication keeps deciding noops past the exhausted
   queues. Regression (late forward): a non-leader forwarded only on
   lambda steps, before harvesting, so a command that had just lost
   its slot was re-proposed locally without the leader hearing of it,
   and on most schedules it lost every later slot too. *)
let test_smr_queue_exhaustion () =
  let n = 3 in
  let pattern = Sim.Failure_pattern.failure_free ~n in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~stab_time:0 pattern)
      (Fd.Oracle.sigma_nu_plus ~stab_time:0 pattern)
  in
  let target = 5 in
  List.iter
    (fun seed ->
      let run =
        R.exec ~seed ~record:false ~pattern ~fd:oracle.Fd.Oracle.query
          ~inputs:(fun p -> [ 100 + p ])
          ~max_steps:30000
          ~stop:(fun st _ ->
            Pset.for_all
              (fun p -> Smr.Over_anuc.slots_decided (st p) >= target)
              (Pset.full ~n))
          ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d kept deciding past the queue" seed)
        true run.R.stopped_early;
      List.iter
        (fun p ->
          let log = Smr.Over_anuc.log run.R.states.(p) in
          List.iter
            (fun v ->
              Alcotest.(check int)
                (Printf.sprintf "seed %d p%d applied command %d exactly once"
                   seed p v)
                1
                (List.length (List.filter (Consensus.Value.equal v) log)))
            [ 100; 101; 102 ];
          Alcotest.(check bool)
            (Printf.sprintf "seed %d p%d decided noops past exhaustion" seed p)
            true
            (List.exists (Consensus.Value.equal Smr.noop) log))
        (Pid.all ~n))
    (List.init 20 Fun.id)

(* Regression (pending-queue bug): the old positional lookup
   [List.nth_opt commands slot] re-proposed whatever command sat at
   the slot's index — a replica whose slot was won by a competing
   proposal skipped that index forever (loss), and a value appearing
   at two indexes was proposed and applied twice (duplication). The
   explicit pending queue dequeues on decision, re-queues losers, and
   filters already-applied values, so duplicated submissions apply
   once and no live replica's command is lost. *)
let test_smr_no_duplicate_application () =
  List.iter
    (fun seed ->
      let n = 4 in
      let pattern = Sim.Failure_pattern.make ~n ~crashes:[] in
      let oracle =
        Fd.Oracle.pair
          (Fd.Oracle.omega ~seed pattern)
          (Fd.Oracle.sigma_nu_plus ~seed pattern)
      in
      let run =
        R.exec ~seed ~record:false ~pattern ~fd:oracle.Fd.Oracle.query
          ~inputs:(fun p -> [ 10 + p; 10 + p ])
          ~max_steps:30000
          ~stop:(fun st _ ->
            Pset.for_all
              (fun p -> Smr.Over_anuc.slots_decided (st p) >= 6)
              (Pset.full ~n))
          ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d reached the target" seed)
        true run.R.stopped_early;
      List.iter
        (fun p ->
          let applied =
            List.filter
              (fun v -> v <> Smr.noop)
              (Smr.Over_anuc.log run.R.states.(p))
          in
          Alcotest.(check int)
            (Printf.sprintf "seed %d p%d: no non-noop value applied twice"
               seed p)
            (List.length applied)
            (List.length (List.sort_uniq compare applied)))
        (Pid.all ~n))
    [ 0; 1; 2 ]

let test_smr_no_command_loss () =
  let n = 4 in
  let crashes = [ (3, 300) ] in
  let pattern = Sim.Failure_pattern.make ~n ~crashes in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~seed:0 pattern)
      (Fd.Oracle.sigma_nu_plus ~seed:0 pattern)
  in
  let correct = Sim.Failure_pattern.correct pattern in
  let inputs p = [ (10 * (p + 1)) + 1; (10 * (p + 1)) + 2 ] in
  let run =
    R.exec ~seed:0 ~record:false ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs ~max_steps:30000
      ~stop:(fun st _ ->
        Pset.for_all
          (fun p -> Smr.Over_anuc.slots_decided (st p) >= 10)
          correct)
      ()
  in
  Alcotest.(check bool) "reached the slot target" true run.R.stopped_early;
  (* every command of every live replica made it into the log — the
     positional lookup lost a command whenever its index's slot was
     decided by someone else's proposal *)
  let log = Smr.Over_anuc.log run.R.states.(Pset.min_elt correct) in
  Pset.fold
    (fun p () ->
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "live p%d's command %d was applied" p v)
            true
            (List.exists (Consensus.Value.equal v) log))
        (inputs p))
    correct ()

(* Regression (unbounded observers): [slots_decided] is a counter,
   not a list length, so it survives compaction; [batches]/[log_base]
   expose the retained window. The old code had no compaction and
   recomputed the count by walking the whole log. *)
let test_smr_compaction_counts () =
  let module S =
    Smr.Make_tuned
      (struct
        let batch = 1
        let pipeline = 1
        let window = max_int
        let retain = 4
        let horizon = 8
      end)
      (struct
        include Core.Anuc

        let decision = Core.Anuc.decision
      end)
  in
  let module Rt = Sim.Runner.Make (S) in
  let n = 3 in
  let target = 12 in
  let pattern = Sim.Failure_pattern.failure_free ~n in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~seed:0 pattern)
      (Fd.Oracle.sigma_nu_plus ~seed:0 pattern)
  in
  let run =
    Rt.exec ~seed:0 ~record:false ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs:(fun p -> List.init 4 (fun i -> (10 * (p + 1)) + i))
      ~max_steps:30000
      ~stop:(fun st _ ->
        Pset.for_all (fun p -> S.slots_decided (st p) >= target)
          (Pset.full ~n))
      ()
  in
  Alcotest.(check bool) "reached the slot target" true run.Rt.stopped_early;
  let reference = run.Rt.states.(0) in
  List.iter
    (fun p ->
      let st = run.Rt.states.(p) in
      let decided = S.slots_decided st in
      let retained = List.length (S.batches st) in
      Alcotest.(check bool)
        (Printf.sprintf "p%d decided at least the target" p)
        true (decided >= target);
      Alcotest.(check bool)
        (Printf.sprintf "p%d retains at most 4 slots" p)
        true (retained <= 4);
      Alcotest.(check int)
        (Printf.sprintf "p%d count survives truncation" p)
        decided
        (S.log_base st + retained);
      Alcotest.(check bool)
        (Printf.sprintf "p%d compacted something" p)
        true
        (S.log_base st > 0);
      if S.log_base st = S.log_base reference then
        Alcotest.(check int)
          (Printf.sprintf "p%d digest matches p0 at equal base" p)
          (S.snapshot_digest reference) (S.snapshot_digest st))
    (Pid.all ~n)

(* Regression (unbounded instance map): decided instances retire once
   they fall below the horizon, so the map stays bounded over a
   1000-slot run where it used to grow with the log. A small horizon
   keeps the per-step pump cheap enough for a thousand slots in a
   test-sized step budget — the bound under the default horizon is
   exercised by test_serve's load runs. *)
let test_smr_bounded_instances () =
  let module S =
    Smr.Make_tuned
      (struct
        let batch = 1
        let pipeline = 1
        let window = max_int
        let retain = 16
        let horizon = 8
      end)
      (struct
        include Core.Anuc

        let decision = Core.Anuc.decision
      end)
  in
  let module Rt = Sim.Runner.Make (S) in
  let n = 3 in
  let target = 1000 in
  let pattern = Sim.Failure_pattern.failure_free ~n in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~seed:0 pattern)
      (Fd.Oracle.sigma_nu_plus ~seed:0 pattern)
  in
  let max_open = ref 0 in
  let bound = 8 + 1 + n + 1 in
  let run =
    Rt.exec ~seed:0 ~record:false ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs:(fun p -> [ 100 + p ])
      ~max_steps:1_000_000
      ~stop:(fun st _ ->
        List.iter
          (fun p -> max_open := max !max_open (S.open_instances (st p)))
          (Pid.all ~n);
        Pset.for_all
          (fun p -> S.slots_decided (st p) >= target)
          (Pset.full ~n))
      ()
  in
  Alcotest.(check bool) "decided 1000 slots" true run.Rt.stopped_early;
  List.iter
    (fun p -> max_open := max !max_open (S.open_instances run.Rt.states.(p)))
    (Pid.all ~n);
  Alcotest.(check bool)
    (Printf.sprintf "open instances bounded by the horizon (%d <= %d)"
       !max_open bound)
    true (!max_open <= bound)

(* A starved replica keeps the instances it still needs: the
   retirement floor is a minimum over all n replicas, with a replica
   never heard from counting as 0. Replica 3 takes no step while 0-2
   decide 20 slots (fewer than the horizon), then all four step; a
   floor taken only over the replicas heard from would retire those
   slots everywhere and strand replica 3 at slot 0. *)
let test_smr_lagging_replica () =
  let n = 4 in
  let pattern = Sim.Failure_pattern.failure_free ~n in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~seed:0 pattern)
      (Fd.Oracle.sigma_nu_plus ~seed:0 pattern)
  in
  let s =
    R.Session.create ~record:false ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs:commands_of ()
  in
  let st p = R.Session.state s p in
  let decided p = Smr.Over_anuc.slots_decided (st p) in
  (* round-robin over [turns], every fifth round a lambda round *)
  let drive turns ~slots ~budget =
    let m = List.length turns in
    let rec go i =
      if List.for_all (fun p -> decided p >= slots) turns then true
      else if i >= budget then false
      else begin
        let p = List.nth turns (i mod m) in
        let choice =
          if i / m mod 5 = 0 || R.Session.pending s p = [] then R.Lambda
          else R.Oldest
        in
        R.Session.step ~choice s p;
        go (i + 1)
      end
    in
    go 0
  in
  Alcotest.(check bool) "replicas 0-2 decided 20 slots without 3" true
    (drive [ 0; 1; 2 ] ~slots:20 ~budget:200_000);
  Alcotest.(check int) "replica 3 decided nothing" 0 (decided 3);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d still serves every slot replica 3 needs" p)
        true
        (Smr.Over_anuc.open_instances (st p) > decided p))
    [ 0; 1; 2 ];
  (* replica 3 takes every other step, so it drains its backlog faster
     than the others refill it; at equal shares the others would pass
     the horizon first, the documented lag bound *)
  Alcotest.(check bool) "all four reached 40 slots" true
    (drive [ 0; 3; 1; 3; 2; 3 ] ~slots:40 ~budget:400_000);
  check_prefix_consistency ~pattern (R.Session.finish s)

(* Replication from the raw weakest detector: each slot runs the full
   Theorem 6.28 stack (emulation + A_nuc). Small target, generous
   budget — this is a composability check, not a throughput one. *)
let test_smr_over_stack () =
  let n = 4 in
  let module Rs = Sim.Runner.Make (Smr.Over_stack) in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (3, 400) ] in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~seed:1 pattern)
      (Fd.Oracle.sigma_nu ~seed:1 pattern)
  in
  let correct = Sim.Failure_pattern.correct pattern in
  let run =
    Rs.exec ~seed:1 ~record:false ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs:commands_of ~max_steps:30000
      ~stop:(fun st _ ->
        Pset.for_all (fun p -> Smr.Over_stack.slots_decided (st p) >= 2)
          correct)
      ()
  in
  (* seed 1's history, pinned: any change to the stack's steps, sends
     or decisions moves one of these figures *)
  Alcotest.(check bool) "two slots decided from raw (Omega, Sigma-nu)" true
    run.Rs.stopped_early;
  Alcotest.(check int) "stop step" 22_603 run.Rs.step_count;
  Alcotest.(check int) "sends" 45_274 run.Rs.messages_sent;
  Pset.iter
    (fun p ->
      Alcotest.(check (list int))
        (Printf.sprintf "p%d log" p)
        [ 100; 200 ]
        (Smr.Over_stack.log run.Rs.states.(p)))
    correct

(* The running full-log digest, pinned against the fold it replaces:
   at every round boundary of a random tuning, seed and crash, every
   replica's [log_digest] is [Snapshot.mix] folded from its
   compacted-prefix digest over its retained batches, a snapshot
   carries that digest, and its [log_len] is the retained slot count.
   At most six commands against an eight-slot target, so every run
   that reaches the target applies noop slots, whose [[noop]] batch
   the fold counts. *)
type digest_case = {
  batch : int;
  retain : int;
  pipeline : int;
  seed : int;
  crash : (Pid.t * int) option;
  sizes : int list;  (** commands per replica *)
}

let digest_case =
  let open QCheck.Gen in
  let gen =
    let* batch = int_range 1 4 in
    let* retain = int_range 1 8 in
    let* pipeline = int_range 1 3 in
    let* seed = int_bound 10_000 in
    let* crash = opt (pair (int_bound 2) (int_bound 1_200)) in
    let* sizes = list_repeat 3 (int_bound 2) in
    return { batch; retain; pipeline; seed; crash; sizes }
  in
  let print c =
    Printf.sprintf "batch %d, retain %d, pipeline %d, seed %d, crash %s, sizes [%s]"
      c.batch c.retain c.pipeline c.seed
      (match c.crash with
      | None -> "none"
      | Some (p, t) -> Printf.sprintf "p%d at %d" p t)
      (String.concat "; " (List.map string_of_int c.sizes))
  in
  QCheck.make ~print gen

let running_digest_holds c =
  let module S =
    Smr.Make_tuned
      (struct
        let batch = c.batch
        let pipeline = c.pipeline
        let window = max_int
        let retain = c.retain
        let horizon = 8
      end)
      (struct
        include Core.Anuc

        let decision = Core.Anuc.decision
      end)
  in
  let module Rt = Sim.Runner.Make (S) in
  let n = 3 in
  let pattern =
    Sim.Failure_pattern.make ~n ~crashes:(Option.to_list c.crash)
  in
  let oracle =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~seed:c.seed pattern)
      (Fd.Oracle.sigma_nu_plus ~seed:c.seed pattern)
  in
  let check p st tick =
    let fold =
      List.fold_left (List.fold_left Snapshot.mix) (S.snapshot_digest st)
        (S.batches st)
    in
    let snap = S.snapshot st ~tick in
    let fail what =
      QCheck.Test.fail_reportf "p%d at tick %d (%d slots, base %d): %s" p
        tick (S.slots_decided st) (S.log_base st) what
    in
    if S.log_digest st <> fold then fail "log_digest <> reference fold";
    if snap.Snapshot.digest <> S.log_digest st then
      fail "snapshot digest <> log_digest";
    if
      snap.Snapshot.log_len <> snap.Snapshot.version - snap.Snapshot.base
      || snap.Snapshot.log_len <> List.length (S.batches st)
    then fail "log_len <> version - base <> retained slots"
  in
  let correct = Sim.Failure_pattern.correct pattern in
  let run =
    Rt.exec ~seed:c.seed ~record:false ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs:(fun p -> List.init (List.nth c.sizes p) (fun k -> 1 + p + (n * k)))
      ~max_steps:30_000
      ~stop:(fun st t ->
        List.iter (fun p -> check p (st p) t) (Pid.all ~n);
        Pset.for_all (fun p -> S.slots_decided (st p) >= 8) correct)
      ()
  in
  List.iter (fun p -> check p run.Rt.states.(p) run.Rt.step_count) (Pid.all ~n);
  true

let test_running_digest =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"running digest = fold over stored batches"
       ~count:100 digest_case running_digest_holds)

let () =
  Alcotest.run "smr"
    [
      ( "replicated-log",
        [
          Alcotest.test_case "no crashes" `Quick test_smr_no_crashes;
          Alcotest.test_case "with crashes" `Quick test_smr_with_crashes;
          Alcotest.test_case "minority correct" `Quick
            test_smr_minority_correct;
          Alcotest.test_case "seed sweep" `Slow test_smr_seeds_sweep;
          Alcotest.test_case "queue exhaustion" `Quick
            test_smr_queue_exhaustion;
          Alcotest.test_case "no duplicate application" `Quick
            test_smr_no_duplicate_application;
          Alcotest.test_case "no command loss" `Quick test_smr_no_command_loss;
          Alcotest.test_case "compaction keeps counts" `Quick
            test_smr_compaction_counts;
          Alcotest.test_case "bounded instances" `Slow
            test_smr_bounded_instances;
          Alcotest.test_case "lagging replica catches up" `Quick
            test_smr_lagging_replica;
          Alcotest.test_case "over the full stack" `Slow test_smr_over_stack;
          test_running_digest;
        ] );
    ]
