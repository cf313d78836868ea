(* Tests for the asynchronous-system simulator: failure patterns,
   environments, and the runner's conformance to the run properties of
   Section 2.6 of the paper. *)
open Procset

let pset = Alcotest.testable Pset.pp Pset.equal

(* -------------------------------------------------------------- *)
(* Failure patterns                                               *)
(* -------------------------------------------------------------- *)

let test_pattern_basics () =
  let f = Sim.Failure_pattern.make ~n:5 ~crashes:[ (1, 3); (4, 10) ] in
  Alcotest.(check int) "n" 5 (Sim.Failure_pattern.n f);
  Alcotest.(check pset) "faulty" (Pset.of_list [ 1; 4 ])
    (Sim.Failure_pattern.faulty f);
  Alcotest.(check pset) "correct"
    (Pset.of_list [ 0; 2; 3 ])
    (Sim.Failure_pattern.correct f);
  Alcotest.(check bool) "p1 alive at 2" false
    (Sim.Failure_pattern.crashed f 1 2);
  Alcotest.(check bool) "p1 crashed at 3" true
    (Sim.Failure_pattern.crashed f 1 3);
  Alcotest.(check int) "last crash" 10 (Sim.Failure_pattern.last_crash_time f);
  Alcotest.(check pset) "F(5)" (Pset.singleton 1)
    (Sim.Failure_pattern.crashed_set f 5)

let test_pattern_monotone () =
  let f = Sim.Failure_pattern.make ~n:6 ~crashes:[ (0, 2); (3, 7); (5, 7) ] in
  let rec check t prev =
    if t > 12 then ()
    else begin
      let now = Sim.Failure_pattern.crashed_set f t in
      Alcotest.(check bool)
        (Printf.sprintf "F(%d) includes F(%d)" t (t - 1))
        true (Pset.subset prev now);
      check (t + 1) now
    end
  in
  check 1 (Sim.Failure_pattern.crashed_set f 0)

let test_pattern_invalid () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Failure_pattern.make: need n >= 2") (fun () ->
      ignore (Sim.Failure_pattern.make ~n:1 ~crashes:[]));
  Alcotest.check_raises "duplicate pid"
    (Invalid_argument "Failure_pattern.make: duplicate pid 1") (fun () ->
      ignore (Sim.Failure_pattern.make ~n:3 ~crashes:[ (1, 2); (1, 5) ]));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Failure_pattern.make: negative crash time") (fun () ->
      ignore (Sim.Failure_pattern.make ~n:3 ~crashes:[ (1, -2) ]))

let test_env () =
  let e = Sim.Env.make ~n:5 ~max_faulty:2 in
  Alcotest.(check bool) "majority correct" true (Sim.Env.majority_correct e);
  let e' = Sim.Env.make ~n:4 ~max_faulty:2 in
  Alcotest.(check bool)
    "half faulty is not majority-correct" false
    (Sim.Env.majority_correct e');
  let f2 = Sim.Failure_pattern.make ~n:5 ~crashes:[ (0, 1); (1, 1) ] in
  let f3 = Sim.Failure_pattern.make ~n:5 ~crashes:[ (0, 1); (1, 1); (2, 1) ] in
  Alcotest.(check bool) "two faults in E_2" true (Sim.Env.mem e f2);
  Alcotest.(check bool) "three faults not in E_2" false (Sim.Env.mem e f3)

let prop_random_pattern =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random_pattern stays in the environment"
       ~count:300
       QCheck.(pair (int_range 2 10) int)
       (fun (n, seed) ->
         let max_faulty = (n - 1) / 2 in
         let e = Sim.Env.make ~n ~max_faulty in
         let rng = Random.State.make [| seed |] in
         let f = Sim.Env.random_pattern rng e in
         Sim.Env.mem e f
         && not (Pset.is_empty (Sim.Failure_pattern.correct f))))

(* -------------------------------------------------------------- *)
(* Mailbox: the O(1)-per-step message buffer                       *)
(* -------------------------------------------------------------- *)

let test_mailbox_fifo () =
  let mb = Sim.Mailbox.create () in
  Alcotest.(check bool) "fresh is empty" true (Sim.Mailbox.is_empty mb);
  List.iter (Sim.Mailbox.enqueue mb) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length tracked" 5 (Sim.Mailbox.length mb);
  Alcotest.(check (option int)) "peek oldest" (Some 1)
    (Sim.Mailbox.peek_oldest mb);
  Alcotest.(check int) "peek does not remove" 5 (Sim.Mailbox.length mb);
  Alcotest.(check (list int)) "to_list oldest-first" [ 1; 2; 3; 4; 5 ]
    (Sim.Mailbox.to_list mb);
  (* interleave dequeues and enqueues across the front/back split *)
  Alcotest.(check (option int)) "dequeue 1" (Some 1)
    (Sim.Mailbox.dequeue_oldest mb);
  Alcotest.(check (option int)) "dequeue 2" (Some 2)
    (Sim.Mailbox.dequeue_oldest mb);
  Sim.Mailbox.enqueue mb 6;
  Alcotest.(check (list int)) "order across split" [ 3; 4; 5; 6 ]
    (Sim.Mailbox.to_list mb);
  let drained = List.init 4 (fun _ -> Sim.Mailbox.dequeue_oldest mb) in
  Alcotest.(check (list (option int)))
    "drain in FIFO order"
    [ Some 3; Some 4; Some 5; Some 6 ]
    drained;
  Alcotest.(check (option int)) "empty dequeues None" None
    (Sim.Mailbox.dequeue_oldest mb);
  Alcotest.(check int) "size back to zero" 0 (Sim.Mailbox.length mb)

let test_mailbox_remove_nth () =
  let mb = Sim.Mailbox.of_list [ 10; 11; 12; 13 ] in
  Sim.Mailbox.enqueue mb 14;
  (* index counts from the oldest, across the front/back split *)
  Alcotest.(check int) "remove middle" 12 (Sim.Mailbox.remove_nth mb 2);
  Alcotest.(check (list int)) "order preserved" [ 10; 11; 13; 14 ]
    (Sim.Mailbox.to_list mb);
  Alcotest.(check int) "remove oldest" 10 (Sim.Mailbox.remove_nth mb 0);
  Alcotest.(check int) "remove newest" 14 (Sim.Mailbox.remove_nth mb 2);
  Alcotest.(check (list int)) "leftovers" [ 11; 13 ] (Sim.Mailbox.to_list mb);
  Alcotest.(check int) "length tracked" 2 (Sim.Mailbox.length mb);
  (try
     ignore (Sim.Mailbox.remove_nth mb 2);
     Alcotest.fail "out-of-bounds index must raise"
   with Invalid_argument _ -> ());
  try
    ignore (Sim.Mailbox.remove_nth mb (-1));
    Alcotest.fail "negative index must raise"
  with Invalid_argument _ -> ()

let test_mailbox_remove_first () =
  let mb = Sim.Mailbox.create () in
  List.iter (Sim.Mailbox.enqueue mb) [ 1; 2; 3; 4 ];
  ignore (Sim.Mailbox.dequeue_oldest mb);
  Sim.Mailbox.enqueue mb 5;
  (* mailbox is [2;3;4;5] with elements on both sides of the split *)
  Alcotest.(check (option int)) "first even from the oldest end" (Some 2)
    (Sim.Mailbox.remove_first mb (fun x -> x mod 2 = 0));
  Alcotest.(check (option int)) "match inside the back half" (Some 5)
    (Sim.Mailbox.remove_first mb (fun x -> x > 4));
  Alcotest.(check (option int)) "no match" None
    (Sim.Mailbox.remove_first mb (fun x -> x > 100));
  Alcotest.(check (list int)) "misses leave contents intact" [ 3; 4 ]
    (Sim.Mailbox.to_list mb);
  Alcotest.(check int) "length tracked" 2 (Sim.Mailbox.length mb)

let test_mailbox_insert_nth () =
  let mb = Sim.Mailbox.of_list [ 10; 11; 12 ] in
  ignore (Sim.Mailbox.dequeue_oldest mb);
  Sim.Mailbox.enqueue mb 13;
  (* mailbox is [11;12;13] split across front and back *)
  Sim.Mailbox.insert_nth mb 0 1;
  Alcotest.(check (list int)) "insert at the oldest end" [ 1; 11; 12; 13 ]
    (Sim.Mailbox.to_list mb);
  Sim.Mailbox.insert_nth mb 2 2;
  Alcotest.(check (list int)) "insert in the middle" [ 1; 11; 2; 12; 13 ]
    (Sim.Mailbox.to_list mb);
  Sim.Mailbox.insert_nth mb 5 3;
  Alcotest.(check (list int)) "insert at the newest end"
    [ 1; 11; 2; 12; 13; 3 ]
    (Sim.Mailbox.to_list mb);
  Alcotest.(check int) "length tracked" 6 (Sim.Mailbox.length mb);
  (try
     Sim.Mailbox.insert_nth mb 7 99;
     Alcotest.fail "out-of-bounds index must raise"
   with Invalid_argument _ -> ());
  try
    Sim.Mailbox.insert_nth mb (-1) 99;
    Alcotest.fail "negative index must raise"
  with Invalid_argument _ -> ()

let prop_mailbox_insert_model =
  (* insert_nth agrees with list insertion at random positions over
     random mailbox shapes (the split position varies with the
     enqueue/dequeue prefix) *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"insert_nth agrees with a list model" ~count:300
       QCheck.(pair (list small_nat) (list (pair small_nat small_nat)))
       (fun (init, inserts) ->
         let mb = Sim.Mailbox.of_list init in
         let model = ref init in
         List.for_all
           (fun (pos, x) ->
             let i = pos mod (List.length !model + 1) in
             Sim.Mailbox.insert_nth mb i x;
             (model :=
                List.filteri (fun j _ -> j < i) !model
                @ [ x ]
                @ List.filteri (fun j _ -> j >= i) !model);
             Sim.Mailbox.to_list mb = !model)
           inserts))

let prop_mailbox_model =
  (* the mailbox agrees with a plain-list model under random
     enqueue / dequeue / remove_nth sequences *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"mailbox agrees with a list model" ~count:300
       QCheck.(list (pair (int_range 0 2) small_nat))
       (fun ops ->
         let mb = Sim.Mailbox.create () in
         let model = ref [] in
         List.for_all
           (fun (op, x) ->
             match op with
             | 0 ->
               Sim.Mailbox.enqueue mb x;
               model := !model @ [ x ];
               true
             | 1 ->
               let got = Sim.Mailbox.dequeue_oldest mb in
               let want =
                 match !model with
                 | [] -> None
                 | y :: rest ->
                   model := rest;
                   Some y
               in
               got = want
             | _ ->
               if !model = [] then true
               else begin
                 let i = x mod List.length !model in
                 let got = Sim.Mailbox.remove_nth mb i in
                 let want = List.nth !model i in
                 model := List.filteri (fun j _ -> j <> i) !model;
                 got = want
               end)
           ops
         && Sim.Mailbox.to_list mb = !model
         && Sim.Mailbox.length mb = List.length !model))

(* -------------------------------------------------------------- *)
(* A tiny deterministic automaton for exercising the runner        *)
(* -------------------------------------------------------------- *)

(* Each step, sends its step counter to the next process around the
   ring and remembers everything it received. *)
module Ring = struct
  type input = unit
  type message = int

  type state = {
    steps : int;
    inbox : (Pid.t * int) list;  (** (sender, counter), newest first *)
  }

  let name = "ring-counter"
  let initial ~n:_ ~self:_ () = { steps = 0; inbox = [] }

  let step ~n ~self st received _d =
    let inbox =
      match received with
      | None -> st.inbox
      | Some e -> (e.Sim.Envelope.src, e.Sim.Envelope.payload) :: st.inbox
    in
    let st = { steps = st.steps + 1; inbox } in
    (st, [ ((self + 1) mod n, st.steps) ])

  let pp_message = Format.pp_print_int
  let equal_message = Int.equal
end

module R = Sim.Runner.Make (Ring)

let fd_unit _ _ = Sim.Fd_value.Unit

let run_ring ?seed ?(crashes = []) ?(max_steps = 300) ?lambda_prob ?faults ()
    =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes in
  R.exec ?seed ?lambda_prob ?faults ~pattern ~fd:fd_unit
    ~inputs:(fun _ -> ())
    ~max_steps ()

let test_runner_fairness () =
  let run = run_ring () in
  (* with no crashes and 300 steps in rounds of 4, everybody takes 75 *)
  Array.iter
    (fun st -> Alcotest.(check int) "steps per process" 75 st.Ring.steps)
    run.R.states

let test_runner_crash_respected () =
  let run = run_ring ~crashes:[ (2, 50) ] () in
  Array.iter
    (fun step ->
      if step.R.pid = 2 then
        Alcotest.(check bool)
          (Printf.sprintf "p2 stepped at %d before crash" step.R.time)
          true (step.R.time < 50))
    run.R.steps;
  (* other processes keep running *)
  Alcotest.(check bool)
    "p0 ran past the crash" true
    (run.R.states.(0).Ring.steps > 60)

let test_runner_no_step_after_crash_all_patterns () =
  List.iter
    (fun seed ->
      let run = run_ring ~seed ~crashes:[ (1, 17); (3, 42) ] () in
      Array.iter
        (fun step ->
          Alcotest.(check bool)
            "no step at or after crash time" true
            (not
               (Sim.Failure_pattern.crashed run.R.pattern step.R.pid
                  step.R.time)))
        run.R.steps)
    [ 0; 1; 2; 3; 4 ]

let test_runner_times_strictly_increasing () =
  let run = run_ring ~seed:7 () in
  let ok = ref true in
  Array.iteri
    (fun i step ->
      if i > 0 then ok := !ok && step.R.time > run.R.steps.(i - 1).R.time)
    run.R.steps;
  Alcotest.(check bool) "times strictly increase" true !ok

let test_runner_delivery_bound () =
  (* with lambda_prob = 0 and max_msg_age = 1 every step drains the
     oldest pending message, so delivery delay is bounded by the
     scheduling round plus the (bounded) per-destination backlog *)
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let run =
    R.exec ~seed:3 ~max_msg_age:1 ~lambda_prob:0.0 ~pattern ~fd:fd_unit
      ~inputs:(fun _ -> ())
      ~max_steps:400 ()
  in
  Array.iter
    (fun step ->
      match step.R.received with
      | None -> ()
      | Some e ->
        Alcotest.(check bool)
          "prompt delivery when forced" true
          (step.R.time - e.Sim.Envelope.sent_at <= 2 * 4))
    run.R.steps

let test_runner_eventual_delivery () =
  (* property-(7) surrogate: under the default policy, nothing stays
     undelivered for long — at the end of a long run every pending
     message for a correct process is recent *)
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let run =
    R.exec ~seed:9 ~pattern ~fd:fd_unit
      ~inputs:(fun _ -> ())
      ~max_steps:600 ()
  in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        "undelivered messages are recent" true
        (e.Sim.Envelope.sent_at > 600 - 150))
    run.R.undelivered

let test_runner_deterministic () =
  let r1 = run_ring ~seed:11 () and r2 = run_ring ~seed:11 () in
  Alcotest.(check int) "same step count" r1.R.step_count r2.R.step_count;
  Array.iteri
    (fun i s ->
      let s' = r2.R.steps.(i) in
      Alcotest.(check int) "same pid" s.R.pid s'.R.pid;
      Alcotest.(check bool)
        "same received" true
        (Option.equal Sim.Envelope.same_identity s.R.received s'.R.received))
    r1.R.steps

let test_runner_stop_predicate () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let run =
    R.exec ~pattern ~fd:fd_unit
      ~inputs:(fun _ -> ())
      ~max_steps:1000
      ~stop:(fun st _ -> (st 0).Ring.steps >= 10)
      ()
  in
  Alcotest.(check bool) "stopped early" true run.R.stopped_early;
  Alcotest.(check bool) "well before the cap" true (run.R.step_count < 100)

(* -------------------------------------------------------------- *)
(* Scripted execution                                              *)
(* -------------------------------------------------------------- *)

let test_script_exact_sequence () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let script =
    [
      { R.actor = 0; choice = R.Lambda };
      { R.actor = 1; choice = R.Oldest_from 0 };
      { R.actor = 1; choice = R.Lambda };
      { R.actor = 2; choice = R.Oldest };
    ]
  in
  let run =
    R.exec_script ~pattern ~fd:fd_unit ~inputs:(fun _ -> ()) ~script ()
  in
  Alcotest.(check int) "four steps" 4 run.R.step_count;
  Alcotest.(check (list int))
    "actors in order" [ 0; 1; 1; 2 ]
    (Array.to_list (Array.map (fun s -> s.R.pid) run.R.steps));
  (* step 2: p1 received p0's first message *)
  match run.R.steps.(1).R.received with
  | Some e ->
    Alcotest.(check int) "from p0" 0 e.Sim.Envelope.src;
    Alcotest.(check int) "payload 1" 1 e.Sim.Envelope.payload
  | None -> Alcotest.fail "p1 should have received p0's message"

let test_script_errors () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[ (2, 1) ] in
  let exec script =
    ignore
      (R.exec_script ~pattern ~fd:fd_unit ~inputs:(fun _ -> ()) ~script ())
  in
  (* crashed actor *)
  (try
     exec [ { R.actor = 2; choice = R.Lambda } ];
     Alcotest.fail "expected Script_error (crashed actor)"
   with R.Script_error _ -> ());
  (* no pending message *)
  try
    exec [ { R.actor = 0; choice = R.Oldest } ];
    Alcotest.fail "expected Script_error (no message)"
  with R.Script_error _ -> ()

let test_session_feedback () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let s = R.Session.create ~pattern ~fd:fd_unit ~inputs:(fun _ -> ()) () in
  R.Session.step s 0;
  R.Session.step s 0;
  Alcotest.(check int) "p0 took two steps" 2 (R.Session.state s 0).Ring.steps;
  Alcotest.(check int) "time advanced" 3 (R.Session.time s);
  Alcotest.(check int) "p1 has two pending" 2
    (List.length (R.Session.pending s 1))

let test_worst_pattern () =
  let e = Sim.Env.make ~n:6 ~max_faulty:3 in
  let f = Sim.Env.worst_pattern e in
  Alcotest.(check bool) "in the environment" true (Sim.Env.mem e f);
  Alcotest.(check int) "exactly t faulty" 3 (Sim.Failure_pattern.num_faulty f)

let test_session_crash_enforced () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[ (1, 3) ] in
  let s = R.Session.create ~pattern ~fd:fd_unit ~inputs:(fun _ -> ()) () in
  R.Session.step s 1;
  (* p1 can step at times 1 and 2 *)
  R.Session.step s 1;
  (* time is now 3: p1 is crashed *)
  try
    R.Session.step s 1;
    Alcotest.fail "expected Script_error for a crashed actor"
  with R.Script_error _ -> ()

let test_scripted_run_replays () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let script =
    [
      { R.actor = 0; choice = R.Lambda };
      { R.actor = 1; choice = R.Oldest_from 0 };
      { R.actor = 2; choice = R.Lambda };
      { R.actor = 3; choice = R.Oldest_from 2 };
      { R.actor = 0; choice = R.Oldest };
    ]
  in
  let run =
    R.exec_script ~pattern ~fd:fd_unit ~inputs:(fun _ -> ()) ~script ()
  in
  match
    R.replay ~n:4
      ~inputs:(fun _ -> ())
      (R.to_replay (Array.to_list run.R.steps))
  with
  | Error e -> Alcotest.fail e
  | Ok states ->
    Array.iteri
      (fun p st ->
        Alcotest.(check int)
          (Printf.sprintf "p%d state matches" p)
          run.R.states.(p).Ring.steps st.Ring.steps)
      states

(* -------------------------------------------------------------- *)
(* Replay and merging (the executable core of Lemma 2.2)           *)
(* -------------------------------------------------------------- *)

let test_replay_reproduces_run () =
  let run = run_ring ~seed:5 ~max_steps:200 () in
  let steps = R.to_replay (Array.to_list run.R.steps) in
  match R.replay ~n:4 ~inputs:(fun _ -> ()) steps with
  | Error e -> Alcotest.fail e
  | Ok states ->
    Array.iteri
      (fun p st ->
        Alcotest.(check int)
          (Printf.sprintf "p%d steps" p)
          run.R.states.(p).Ring.steps st.Ring.steps;
        Alcotest.(check bool)
          (Printf.sprintf "p%d inbox" p)
          true
          (run.R.states.(p).Ring.inbox = st.Ring.inbox))
      states

let test_replay_rejects_unsent_message () =
  let bogus =
    { Sim.Envelope.src = 0; dst = 1; seq = 99; sent_at = 1; payload = 42 }
  in
  let steps =
    [ { R.r_pid = 1; r_received = Some bogus; r_fd = Sim.Fd_value.Unit } ]
  in
  match R.replay ~n:4 ~inputs:(fun _ -> ()) steps with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay should reject a message never sent"

module Rmaj = Sim.Runner.Make (Consensus.Mr.Majority)

(* Lemma 2.2's applicability needs each received message pending at
   the process that receives it. Take the last receive of a seeded run
   that crossed processes, hand it to the third process, and both
   replay and conformance must name the misaddressed step; a step of
   a pid out of range is an error too, never an exception. *)
let test_replay_rejects_misaddressed_receive () =
  let n = 3 in
  let pattern = Sim.Failure_pattern.failure_free ~n in
  let fd _ _ = Sim.Fd_value.Leader 0 in
  let inputs p = p in
  let run = Rmaj.exec ~seed:1 ~pattern ~fd ~inputs ~max_steps:30 () in
  let replay steps = Rmaj.replay ~n ~inputs (Rmaj.to_replay steps) in
  (match replay (Array.to_list run.Rmaj.steps) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the genuine run must replay: %s" e);
  let cross (s : Rmaj.recorded_step) =
    match s.Rmaj.received with
    | Some e -> e.Sim.Envelope.src <> s.Rmaj.pid
    | None -> false
  in
  let i =
    List.fold_left
      (fun acc i -> if cross run.Rmaj.steps.(i) then i else acc)
      (-1)
      (List.init (Array.length run.Rmaj.steps) Fun.id)
  in
  Alcotest.(check bool) "the run has a cross-process receive" true (i >= 0);
  let s = run.Rmaj.steps.(i) in
  let env = Option.get s.Rmaj.received in
  let thief =
    List.find
      (fun p -> p <> env.Sim.Envelope.src && p <> env.Sim.Envelope.dst)
      [ 0; 1; 2 ]
  in
  let steps = Array.copy run.Rmaj.steps in
  steps.(i) <- { s with Rmaj.pid = thief };
  let why =
    Printf.sprintf
      "step of p%d at replay position %d: received message p%d->p%d#%d is \
       addressed to p%d"
      thief (i + 1) env.Sim.Envelope.src env.Sim.Envelope.dst
      env.Sim.Envelope.seq env.Sim.Envelope.dst
  in
  let expect what = function
    | Ok _ -> Alcotest.failf "%s accepted p%d's misaddressed receive" what thief
    | Error e -> Alcotest.(check string) what why e
  in
  expect "replay" (replay (Array.to_list steps));
  expect "conformance"
    (Rmaj.conformance ~fairness_window:1000 ~delivery_bound:1000 ~fd ~inputs
       { run with Rmaj.steps });
  (match
     Rmaj.replay ~n ~inputs
       [ { Rmaj.r_pid = n; r_received = None; r_fd = fd n 1 } ]
   with
  | Ok _ -> Alcotest.fail "replay accepted a step of p3 at n = 3"
  | Error _ -> ());
  let steps = Array.copy run.Rmaj.steps in
  steps.(0) <- { (steps.(0)) with Rmaj.pid = n };
  match
    Rmaj.conformance ~fairness_window:1000 ~delivery_bound:1000 ~fd ~inputs
      { run with Rmaj.steps }
  with
  | Ok () -> Alcotest.fail "conformance accepted a step of p3 at n = 3"
  | Error _ -> ()

(* Two scripted runs with disjoint participants merge into a single
   run in which each participant ends in the same state (Lemma 2.2). *)
let test_merge_disjoint_runs () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let script01 =
    [
      { R.actor = 0; choice = R.Lambda };
      { R.actor = 1; choice = R.Oldest_from 0 };
      { R.actor = 0; choice = R.Lambda };
      { R.actor = 1; choice = R.Oldest_from 0 };
    ]
  in
  let script23 =
    [
      { R.actor = 2; choice = R.Lambda };
      { R.actor = 3; choice = R.Oldest_from 2 };
      { R.actor = 3; choice = R.Lambda };
      { R.actor = 2; choice = R.Lambda };
    ]
  in
  let run0 =
    R.exec_script ~pattern ~fd:fd_unit ~inputs:(fun _ -> ()) ~script:script01
      ()
  in
  let run1 =
    R.exec_script ~pattern ~fd:fd_unit ~inputs:(fun _ -> ()) ~script:script23
      ()
  in
  let merged =
    R.merge_traces (Array.to_list run0.R.steps) (Array.to_list run1.R.steps)
  in
  match R.replay ~n:4 ~inputs:(fun _ -> ()) merged with
  | Error e -> Alcotest.fail ("merged run not applicable: " ^ e)
  | Ok states ->
    List.iter
      (fun p ->
        let reference =
          if p < 2 then run0.R.states.(p) else run1.R.states.(p)
        in
        Alcotest.(check int)
          (Printf.sprintf "p%d same steps as sub-run" p)
          reference.Ring.steps states.(p).Ring.steps;
        Alcotest.(check bool)
          (Printf.sprintf "p%d same inbox as sub-run" p)
          true
          (reference.Ring.inbox = states.(p).Ring.inbox))
      [ 0; 1; 2; 3 ]

(* The runner validates against its own model checker: a fair run
   satisfies every run property of Section 2.6. *)
let test_conformance_fair_run () =
  List.iter
    (fun seed ->
      let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[ (2, 40) ] in
      let run =
        R.exec ~seed ~pattern ~fd:fd_unit
          ~inputs:(fun _ -> ())
          ~max_steps:300 ()
      in
      match R.conformance ~fd:fd_unit ~inputs:(fun _ -> ()) run with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: %s" seed e)
    [ 0; 1; 2 ]

(* A scripted, deliberately unfair run fails the fairness surrogate
   but passes the hard model constraints with the window disabled. *)
let test_conformance_unfair_script () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let script =
    List.concat_map
      (fun _ -> [ { R.actor = 0; choice = R.Lambda } ])
      (List.init 40 (fun i -> i))
    @ [ { R.actor = 1; choice = R.Lambda } ]
  in
  let run =
    R.exec_script ~pattern ~fd:fd_unit ~inputs:(fun _ -> ()) ~script ()
  in
  (match R.conformance ~fd:fd_unit ~inputs:(fun _ -> ()) run with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unfair script should fail fairness");
  match
    R.conformance ~fairness_window:10_000 ~delivery_bound:10_000 ~fd:fd_unit
      ~inputs:(fun _ -> ())
      run
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "hard constraints should pass: %s" e

(* A run validated against the wrong detector history is rejected. *)
let test_conformance_wrong_fd () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let run =
    R.exec ~pattern ~fd:fd_unit ~inputs:(fun _ -> ()) ~max_steps:50 ()
  in
  match
    R.conformance
      ~fd:(fun p _ -> Sim.Fd_value.Leader p)
      ~inputs:(fun _ -> ())
      run
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong history must be rejected"

(* Conformance must not pass vacuously: an empty run is a documented
   Ok, a non-empty run executed with ~record:false is an explicit
   error (there is nothing to validate). *)
let test_conformance_empty_run () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let run =
    R.exec ~pattern ~fd:fd_unit ~inputs:(fun _ -> ()) ~max_steps:0 ()
  in
  Alcotest.(check int) "no steps" 0 run.R.step_count;
  match R.conformance ~fd:fd_unit ~inputs:(fun _ -> ()) run with
  | Ok () -> ()
  | Error e -> Alcotest.failf "empty run must conform trivially: %s" e

let test_conformance_unrecorded_run () =
  let pattern = Sim.Failure_pattern.make ~n:4 ~crashes:[] in
  let run =
    R.exec ~record:false ~pattern ~fd:fd_unit
      ~inputs:(fun _ -> ())
      ~max_steps:50 ()
  in
  Alcotest.(check int) "steps taken" 50 run.R.step_count;
  match R.conformance ~fd:fd_unit ~inputs:(fun _ -> ()) run with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unrecorded non-empty run must not pass vacuously"

(* -------------------------------------------------------------- *)
(* Run metrics                                                     *)
(* -------------------------------------------------------------- *)

let test_runner_metrics () =
  let run = run_ring ~seed:4 () in
  let m = run.R.metrics in
  Alcotest.(check int) "per-process steps sum to step_count"
    run.R.step_count
    (Array.fold_left ( + ) 0 m.Sim.Runner.steps_per_process);
  Alcotest.(check int) "sent mirrors messages_sent" run.R.messages_sent
    m.Sim.Runner.sent;
  Alcotest.(check int) "every send is delivered or still buffered"
    m.Sim.Runner.sent
    (m.Sim.Runner.delivered + m.Sim.Runner.undelivered_at_stop);
  Alcotest.(check int) "undelivered_at_stop counts the leftovers"
    (List.length run.R.undelivered)
    m.Sim.Runner.undelivered_at_stop;
  Alcotest.(check int) "no faults: nothing dropped" 0 m.Sim.Runner.dropped;
  Alcotest.(check int) "no faults: nothing duplicated" 0
    m.Sim.Runner.duplicated;
  Alcotest.(check int) "no faults: nothing reordered" 0
    m.Sim.Runner.reordered;
  Alcotest.(check bool) "mailbox high-water mark observed" true
    (m.Sim.Runner.mailbox_hwm >= 1);
  Alcotest.(check bool) "wall clock nonnegative" true
    (m.Sim.Runner.wall_seconds >= 0.0)

(* -------------------------------------------------------------- *)
(* Network faults (Sim.Faults)                                     *)
(* -------------------------------------------------------------- *)

(* Everything observable except the wall clock. *)
let run_equal r1 r2 =
  r1.R.states = r2.R.states
  && r1.R.steps = r2.R.steps
  && r1.R.step_count = r2.R.step_count
  && r1.R.messages_sent = r2.R.messages_sent
  && r1.R.undelivered = r2.R.undelivered
  && r1.R.stopped_early = r2.R.stopped_early
  && { r1.R.metrics with Sim.Runner.wall_seconds = 0.0 }
     = { r2.R.metrics with Sim.Runner.wall_seconds = 0.0 }

(* Random fault specs as printable/shrinkable tuples:
   (drop, dup in tenths; reorder window; spec seed). *)
let arb_fault_quad =
  QCheck.quad
    QCheck.(int_bound 9)
    QCheck.(int_bound 9)
    QCheck.(int_bound 4)
    QCheck.small_nat

let spec_of (drop10, dup10, reorder, fseed) =
  Sim.Faults.make
    ~drop:(float_of_int drop10 /. 10.0)
    ~dup:(float_of_int dup10 /. 10.0)
    ~reorder ~seed:fseed ()

let prop_faulty_run_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"same seed + same fault spec => identical run"
       ~count:40
       QCheck.(pair arb_fault_quad (int_range 0 10_000))
       (fun (fq, seed) ->
         let faults = spec_of fq in
         run_equal (run_ring ~seed ~faults ()) (run_ring ~seed ~faults ())))

let prop_faulty_run_conforms =
  (* a faulty recorded run round-trips: conformance replays it under
     the run's own spec and re-derives the exact verdicts — and the
     message-accounting conservation law holds *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"faulty runs replay and conform" ~count:40
       QCheck.(pair arb_fault_quad (int_range 0 10_000))
       (fun (fq, seed) ->
         let faults = spec_of fq in
         let run = run_ring ~seed ~faults () in
         let m = run.R.metrics in
         let conserved =
           m.Sim.Runner.sent - m.Sim.Runner.dropped
           + m.Sim.Runner.duplicated
           = m.Sim.Runner.delivered + m.Sim.Runner.undelivered_at_stop
         in
         match R.conformance ~fd:fd_unit ~inputs:(fun _ -> ()) run with
         | Ok () -> conserved
         | Error e -> QCheck.Test.fail_reportf "conformance: %s" e))

let prop_zero_rate_spec_is_identity =
  (* a zero-rate spec (whatever its seed) leaves seeded runs
     byte-identical to runs executed with no spec at all *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"zero-rate fault spec changes nothing" ~count:40
       QCheck.(int_range 0 10_000)
       (fun seed ->
         let zero = Sim.Faults.make ~seed:(seed + 77) () in
         run_equal (run_ring ~seed ()) (run_ring ~seed ~faults:zero ())))

(* A total partition between {0,1} and {2,3} severs the two
   cross-group ring links (1->2 and 3->0) for the whole run: the cut
   destinations hear nothing, the in-group link still works, and
   every severed send is counted as dropped. *)
let test_partition_severs_links () =
  let faults =
    Sim.Faults.make
      ~partitions:
        [
          {
            Sim.Faults.from_t = 0;
            until_t = max_int;
            groups = [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 2; 3 ] ];
          };
        ]
      ()
  in
  let run = run_ring ~seed:11 ~faults ~max_steps:100 () in
  Alcotest.(check (list (pair int int)))
    "p2 heard nothing across the cut" []
    run.R.states.(2).Ring.inbox;
  Alcotest.(check (list (pair int int)))
    "p0 heard nothing across the cut" []
    run.R.states.(0).Ring.inbox;
  Alcotest.(check bool) "p1 still hears p0" true
    (run.R.states.(1).Ring.inbox <> []);
  let m = run.R.metrics in
  Alcotest.(check int) "every cross-group send was dropped"
    (run.R.states.(1).Ring.steps + run.R.states.(3).Ring.steps)
    m.Sim.Runner.dropped;
  (* the faulty run still validates end to end *)
  match R.conformance ~fd:fd_unit ~inputs:(fun _ -> ()) run with
  | Ok () -> ()
  | Error e -> Alcotest.failf "partitioned run must conform: %s" e

let test_partition_heals () =
  let faults =
    Sim.Faults.make
      ~partitions:
        [
          {
            Sim.Faults.from_t = 0;
            until_t = 10;
            groups = [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 2; 3 ] ];
          };
        ]
      ()
  in
  let run = run_ring ~seed:11 ~faults ~max_steps:200 () in
  Alcotest.(check bool) "p2 hears p1 again after the heal" true
    (List.exists (fun (src, _) -> src = 1) run.R.states.(2).Ring.inbox);
  Alcotest.(check bool) "only window-time sends were lost" true
    (run.R.metrics.Sim.Runner.dropped < run.R.metrics.Sim.Runner.sent / 4)

let test_duplication_counted () =
  let faults = Sim.Faults.make ~dup:1.0 () in
  let run = run_ring ~seed:3 ~faults ~max_steps:120 () in
  let m = run.R.metrics in
  (* the ring only sends cross-process messages, so every send
     duplicates *)
  Alcotest.(check int) "every send duplicated" m.Sim.Runner.sent
    m.Sim.Runner.duplicated;
  Alcotest.(check int) "conservation law"
    (m.Sim.Runner.sent + m.Sim.Runner.duplicated)
    (m.Sim.Runner.delivered + m.Sim.Runner.undelivered_at_stop)

(* -------------------------------------------------------------- *)
(* Partition-window boundary semantics (pinned)                    *)
(* -------------------------------------------------------------- *)

(* The window semantics the .mli documents, pinned move by move:
   [from_t, until_t] is inclusive at BOTH ends, overlapping windows
   compose conjunctively (every active window must connect the
   pair), self-sends are exempt from everything, and severing beats
   the probabilistic dimensions (a severed message is dropped even
   with drop = 0 and dup = 1). Changing any of these silently
   reinterprets every recorded faulty trace, so they get their own
   tests rather than riding along inside runner scenarios. *)

let split_01_23 =
  [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 2; 3 ] ]

let window from_t until_t =
  { Sim.Faults.from_t; until_t; groups = split_01_23 }

let test_partition_window_inclusive () =
  let faults = Sim.Faults.make ~partitions:[ window 10 20 ] () in
  let cut time = Sim.Faults.severed faults ~src:1 ~dst:2 ~time in
  Alcotest.(check bool) "t = from_t - 1 open" false (cut 9);
  Alcotest.(check bool) "t = from_t cut (inclusive)" true (cut 10);
  Alcotest.(check bool) "t = until_t cut (inclusive)" true (cut 20);
  Alcotest.(check bool) "t = until_t + 1 open" false (cut 21);
  (* the in-group link is never cut, at any time *)
  List.iter
    (fun time ->
      Alcotest.(check bool) "in-group link open" false
        (Sim.Faults.severed faults ~src:0 ~dst:1 ~time))
    [ 9; 10; 15; 20; 21 ]

let test_partition_windows_conjoin () =
  (* Two overlapping windows with different splits: in the overlap a
     pair must be co-grouped in BOTH to communicate; where only one
     window is active, only that window's split matters. *)
  let w1 = window 0 20 (* {0,1} | {2,3} *) in
  let w2 =
    {
      Sim.Faults.from_t = 10;
      until_t = 30;
      groups = [ Pset.of_list [ 0; 2 ]; Pset.of_list [ 1; 3 ] ];
    }
  in
  let faults = Sim.Faults.make ~partitions:[ w1; w2 ] () in
  let cut ~src ~dst time = Sim.Faults.severed faults ~src ~dst ~time in
  (* 0-1: co-grouped in w1, split by w2 *)
  Alcotest.(check bool) "0-1 open while only w1 active" false
    (cut ~src:0 ~dst:1 5);
  Alcotest.(check bool) "0-1 cut in the overlap (w2 splits it)" true
    (cut ~src:0 ~dst:1 15);
  Alcotest.(check bool) "0-1 cut while only w2 active" true
    (cut ~src:0 ~dst:1 25);
  (* 0-2: split by w1, co-grouped in w2 *)
  Alcotest.(check bool) "0-2 cut in the overlap (w1 splits it)" true
    (cut ~src:0 ~dst:2 15);
  Alcotest.(check bool) "0-2 open while only w2 active" false
    (cut ~src:0 ~dst:2 25);
  (* 0-3: split by both — cut across the union of the windows *)
  List.iter
    (fun time ->
      Alcotest.(check bool) "0-3 cut" true (cut ~src:0 ~dst:3 time))
    [ 0; 10; 20; 30 ];
  Alcotest.(check bool) "0-3 open after both heal" false
    (cut ~src:0 ~dst:3 31)

(* A pid in no group of an active window is cut off from everyone
   (including co-excluded pids): only co-membership connects. *)
let test_partition_ungrouped_pid_isolated () =
  let faults =
    Sim.Faults.make
      ~partitions:
        [ { Sim.Faults.from_t = 0; until_t = 10; groups = [ Pset.of_list [ 0; 1 ] ] } ]
      ()
  in
  Alcotest.(check bool) "2 -> 0 cut" true
    (Sim.Faults.severed faults ~src:2 ~dst:0 ~time:5);
  Alcotest.(check bool) "2 -> 3 cut (both ungrouped)" true
    (Sim.Faults.severed faults ~src:2 ~dst:3 ~time:5)

let prop_partition_self_send_exempt =
  (* self-sends model local delivery: no generated spec may ever
     sever or touch one, whatever its windows and rates *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"self-sends exempt from every fault spec"
       ~count:200
       (QCheck.triple (Tutil.arb_faults ~n:4)
          QCheck.(int_bound 3)
          QCheck.(int_bound 200))
       (fun (faults, p, time) ->
         (not (Sim.Faults.severed faults ~src:p ~dst:p ~time))
         && Sim.Faults.verdict faults ~src:p ~dst:p ~seq:0 ~time
            = { Sim.Faults.copies = 1; displace = 0 }))

let prop_severed_beats_rates =
  (* inside a total partition the verdict is a drop — even with
     drop = 0 and dup = 1, which would otherwise force duplication *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"severed links drop regardless of dup/drop"
       ~count:100
       (QCheck.triple
          QCheck.(int_bound 3)
          QCheck.(int_bound 3)
          QCheck.(int_bound 100))
       (fun (src, dst, time) ->
         QCheck.assume (src <> dst);
         let faults =
           Sim.Faults.make ~dup:1.0
             ~partitions:[ { Sim.Faults.from_t = 0; until_t = 200; groups = [] } ]
             ()
         in
         Sim.Faults.verdict faults ~src ~dst ~seq:0 ~time
         = { Sim.Faults.copies = 0; displace = 0 }))

(* -------------------------------------------------------------- *)
(* Meta: the shared shrinkers must themselves report minimal       *)
(* counterexamples                                                 *)
(* -------------------------------------------------------------- *)

(* Seed a property that must fail ("no process ever crashes") and pin
   what the universe shrinker reports: one crash, at time 0, in the
   smallest universe that can still contain it. If this test breaks,
   every property test built on [Tutil.arb_universe] still *fails*
   on bugs — but reports noisy, oversized counterexamples. *)
let test_universe_shrinks_to_minimal () =
  match
    Tutil.shrunk_counterexample ~count:500 ~seed:42
      (Tutil.arb_universe ~min_n:2 ~max_n:8 ())
      (fun u -> u.Tutil.u_crashes = [])
  with
  | None -> Alcotest.fail "the seeded property never failed"
  | Some u ->
    (match u.Tutil.u_crashes with
    | [ (p, time) ] ->
      Alcotest.(check int) "crash time shrunk to 0" 0 time;
      Alcotest.(check int)
        "no smaller universe can hold the crash (n = max 2 (pid + 1))"
        (max 2 (p + 1))
        u.Tutil.u_n;
      Alcotest.(check int) "environment bound shrunk to one crash" 1
        u.Tutil.u_t
    | crashes ->
      Alcotest.failf "expected exactly one shrunk crash, got %d"
        (List.length crashes))

let test_faults_shrink_to_empty_dimensions () =
  (* "no spec has partitions" must fail, and shrink to a spec whose
     every OTHER dimension is zeroed and whose single window has
     width 0 — only the load-bearing fault survives shrinking *)
  match
    Tutil.shrunk_counterexample ~count:500 ~seed:7 (Tutil.arb_faults ~n:4)
      (fun f -> f.Sim.Faults.partitions = [])
  with
  | None -> Alcotest.fail "the seeded property never failed"
  | Some f ->
    Alcotest.(check (float 0.0)) "drop shrunk away" 0.0 f.Sim.Faults.drop;
    Alcotest.(check (float 0.0)) "dup shrunk away" 0.0 f.Sim.Faults.dup;
    Alcotest.(check int) "reorder shrunk away" 0 f.Sim.Faults.reorder;
    (match f.Sim.Faults.partitions with
    | [ pt ] ->
      Alcotest.(check int) "window narrowed to width 0" pt.Sim.Faults.from_t
        pt.Sim.Faults.until_t
    | ps ->
      Alcotest.failf "expected exactly one shrunk window, got %d"
        (List.length ps))

(* -------------------------------------------------------------- *)
(* Replay round-trips on the real automata                         *)
(* -------------------------------------------------------------- *)

(* Replay of a recorded randomized run must be applicable and
   reproduce each automaton's final decision (Lemma 2.2 exercised on
   the actual consensus algorithms, not just the ring probe). The
   patterns come from the shared generator in Tutil, so failures
   shrink to a minimal crash schedule. *)
let arb_replay_universe =
  QCheck.pair
    (Tutil.arb_universe ~min_n:3 ~max_n:5 ~crash_window:60 ())
    QCheck.(int_range 0 10_000)

let prop_replay_roundtrip_anuc =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"replay round-trips A_nuc runs" ~count:12
       arb_replay_universe
       (fun (u, seed) ->
         Tutil.replay_roundtrips
           (module Core.Anuc)
           ~family:Tutil.benign_nu_plus ~seed
           ~pattern:(Tutil.universe_pattern u) ()))

let prop_replay_roundtrip_mr =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"replay round-trips MR-Sigma runs" ~count:12
       arb_replay_universe
       (fun (u, seed) ->
         Tutil.replay_roundtrips
           (module Consensus.Mr.With_quorum)
           ~family:Tutil.benign_sigma ~seed
           ~pattern:(Tutil.universe_pattern u) ()))

let prop_replay_roundtrip_ct =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"replay round-trips CT runs" ~count:12
       (QCheck.pair
          (Tutil.arb_universe ~min_n:3 ~max_n:5 ~majority_correct:true
             ~crash_window:60 ())
          QCheck.(int_range 0 10_000))
       (fun (u, seed) ->
         Tutil.replay_roundtrips
           (module Consensus.Ct)
           ~family:Tutil.eventually_strong ~seed
           ~pattern:(Tutil.universe_pattern u) ()))

let () =
  Alcotest.run "sim"
    [
      ( "failure-patterns",
        [
          Alcotest.test_case "basics" `Quick test_pattern_basics;
          Alcotest.test_case "monotone" `Quick test_pattern_monotone;
          Alcotest.test_case "invalid args" `Quick test_pattern_invalid;
          Alcotest.test_case "environments" `Quick test_env;
          prop_random_pattern;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "FIFO order" `Quick test_mailbox_fifo;
          Alcotest.test_case "indexed removal" `Quick test_mailbox_remove_nth;
          Alcotest.test_case "predicate removal" `Quick
            test_mailbox_remove_first;
          Alcotest.test_case "indexed insertion" `Quick
            test_mailbox_insert_nth;
          prop_mailbox_insert_model;
          prop_mailbox_model;
        ] );
      ( "faults",
        [
          prop_faulty_run_deterministic;
          prop_faulty_run_conforms;
          prop_zero_rate_spec_is_identity;
          Alcotest.test_case "partition severs links" `Quick
            test_partition_severs_links;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "duplication counted" `Quick
            test_duplication_counted;
        ] );
      ( "partition-windows",
        [
          Alcotest.test_case "window bounds inclusive" `Quick
            test_partition_window_inclusive;
          Alcotest.test_case "overlapping windows conjoin" `Quick
            test_partition_windows_conjoin;
          Alcotest.test_case "ungrouped pid isolated" `Quick
            test_partition_ungrouped_pid_isolated;
          prop_partition_self_send_exempt;
          prop_severed_beats_rates;
        ] );
      ( "shrinker-meta",
        [
          Alcotest.test_case "universe shrinks to minimal" `Quick
            test_universe_shrinks_to_minimal;
          Alcotest.test_case "fault spec shrinks to one dimension" `Quick
            test_faults_shrink_to_empty_dimensions;
        ] );
      ( "runner",
        [
          Alcotest.test_case "fairness" `Quick test_runner_fairness;
          Alcotest.test_case "metrics" `Quick test_runner_metrics;
          Alcotest.test_case "crash respected" `Quick
            test_runner_crash_respected;
          Alcotest.test_case "no step after crash (seeds)" `Quick
            test_runner_no_step_after_crash_all_patterns;
          Alcotest.test_case "times strictly increasing" `Quick
            test_runner_times_strictly_increasing;
          Alcotest.test_case "delivery bound" `Quick
            test_runner_delivery_bound;
          Alcotest.test_case "eventual delivery" `Quick
            test_runner_eventual_delivery;
          Alcotest.test_case "deterministic given seed" `Quick
            test_runner_deterministic;
          Alcotest.test_case "stop predicate" `Quick
            test_runner_stop_predicate;
        ] );
      ( "script-session",
        [
          Alcotest.test_case "exact sequence" `Quick
            test_script_exact_sequence;
          Alcotest.test_case "script errors" `Quick test_script_errors;
          Alcotest.test_case "session feedback" `Quick test_session_feedback;
          Alcotest.test_case "worst pattern" `Quick test_worst_pattern;
          Alcotest.test_case "session crash enforced" `Quick
            test_session_crash_enforced;
          Alcotest.test_case "scripted run replays" `Quick
            test_scripted_run_replays;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "fair runs conform" `Quick
            test_conformance_fair_run;
          Alcotest.test_case "unfair script detected" `Quick
            test_conformance_unfair_script;
          Alcotest.test_case "wrong detector history rejected" `Quick
            test_conformance_wrong_fd;
          Alcotest.test_case "empty run conforms trivially" `Quick
            test_conformance_empty_run;
          Alcotest.test_case "unrecorded run rejected" `Quick
            test_conformance_unrecorded_run;
        ] );
      ( "replay-merge",
        [
          Alcotest.test_case "replay reproduces run" `Quick
            test_replay_reproduces_run;
          Alcotest.test_case "replay rejects bogus message" `Quick
            test_replay_rejects_unsent_message;
          Alcotest.test_case "replay rejects misaddressed receive" `Quick
            test_replay_rejects_misaddressed_receive;
          Alcotest.test_case "merge disjoint runs (Lemma 2.2)" `Quick
            test_merge_disjoint_runs;
          prop_replay_roundtrip_anuc;
          prop_replay_roundtrip_mr;
          prop_replay_roundtrip_ct;
        ] );
    ]
