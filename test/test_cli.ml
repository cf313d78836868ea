(* Determinism of the seeded entry points: the same seed must produce
   byte-identical output, at the library level and through the
   nuc_cli binary itself. *)

let read_all ic =
  let b = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  Buffer.contents b

(* Resolve a built executable relative to this test executable, so
   the test works both under `dune runtest` (cwd = test dir) and `dune
   exec` (cwd = workspace root). *)
let built dir exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat dir exe))

let nuc_cli = built "bin" "nuc_cli.exe"

(* Runs the CLI and returns (exit code, combined output) — for the
   tests that pin the exit-code contract itself. *)
let run_cli_status args =
  let cmd = Filename.quote_command nuc_cli args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let out = read_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED c -> (c, out)
  | _ -> Alcotest.failf "%s killed" cmd

let run_cli args =
  match run_cli_status args with
  | 0, out -> out
  | c, out ->
    Alcotest.failf "%s exited with %d:\n%s"
      (Filename.quote_command nuc_cli args)
      c out

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_cli_run_same_seed () =
  let args = [ "run"; "--algo"; "a_nuc"; "-n"; "4"; "-t"; "1"; "--seed"; "7" ] in
  let out1 = run_cli args in
  let out2 = run_cli args in
  Alcotest.(check bool) "produced output" true (String.length out1 > 0);
  Alcotest.(check string) "identical output for identical seed" out1 out2

let test_cli_experiments_same_seed () =
  let args = [ "experiments"; "--quick"; "--only"; "e1"; "--seed"; "3" ] in
  let out1 = run_cli args in
  let out2 = run_cli args in
  Alcotest.(check string) "identical output for identical seed" out1 out2

let test_library_rows_same_seed () =
  let r1 = Experiments.e1_extract_sigma_nu ~quick:true ~seed_base:5 () in
  let r2 = Experiments.e1_extract_sigma_nu ~quick:true ~seed_base:5 () in
  Alcotest.(check bool) "identical E1 rows" true (r1 = r2);
  let a1 = Experiments.ablation ~quick:true ~seed_base:2 () in
  let a2 = Experiments.ablation ~quick:true ~seed_base:2 () in
  Alcotest.(check bool) "identical ablation tables" true (a1 = a2)

(* A starved E9 (step budget too small for either side to decide)
   reports a failed row instead of escaping as an exception — the
   regression this pins once surfaced as a bare [Failure] through
   the CLI. *)
let test_e9_budget_failure_is_a_row () =
  let row = Experiments.e9_merge ~quick:true ~step_budget:1 () in
  Alcotest.(check bool) "row fails" false row.Experiments.pass;
  let mentions_budget = contains row.Experiments.measured "no merge attempted" in
  Alcotest.(check bool)
    (Printf.sprintf "measured explains the starved budget: %s"
       row.Experiments.measured)
    true mentions_budget

(* The run subcommand with an adversarial network: deterministic for
   a fixed seed, and a different fault seed perturbs the run. *)
let test_cli_faulty_run_same_seed () =
  let args =
    [
      "run"; "--algo"; "a_nuc"; "-n"; "4"; "-t"; "1"; "--seed"; "7";
      "--drop"; "0.1"; "--dup"; "0.05"; "--reorder"; "2";
      "--partition"; "20-60:0,1|2,3";
    ]
  in
  let out1 = run_cli args in
  let out2 = run_cli args in
  Alcotest.(check bool) "produced output" true (String.length out1 > 0);
  Alcotest.(check string) "identical output for identical seed" out1 out2

(* Every path [Experiments.latency] serves, each with its stdout: the
   five algorithms, two quorum families (the second prints the
   resilience note) and one faulty run. A changed literal means a
   changed run. *)
let run_pins =
  [
    ( "--algo a_nuc -n 5 -t 2 --seed 1",
      {|A_nuc, n=5, E_2, seed 1:
  all correct processes decided: true
  decision round (avg): 3.7
  simulation steps:     265
  messages sent:        324
  mailbox depth (hwm):  43
|} );
    ( "--algo mr_majority -n 5 -t 2 --seed 3",
      {|MR-majority, n=5, E_2, seed 3:
  all correct processes decided: true
  decision round (avg): 1.0
  simulation steps:     75
  messages sent:        100
  mailbox depth (hwm):  8
|} );
    ( "--algo mr_sigma -n 5 -t 3 --seed 4",
      {|MR-Sigma, n=5, E_3, seed 4:
  all correct processes decided: true
  decision round (avg): 1.4
  simulation steps:     155
  messages sent:        185
  mailbox depth (hwm):  8
|} );
    ( "--algo stack -n 4 -t 3 --seed 5",
      {|Stack, n=4, E_3, seed 5:
  all correct processes decided: true
  decision round (avg): 3.0
  simulation steps:     98
  messages sent:        190
  mailbox depth (hwm):  42
|} );
    ( "--algo ct -n 5 -t 2 --seed 6",
      {|CT-<>S, n=5, E_2, seed 6:
  all correct processes decided: true
  decision round (avg): 5.8
  simulation steps:     145
  messages sent:        114
  mailbox depth (hwm):  8
|} );
    ( "--quorum grid:2x2 -n 4 -t 1 --seed 1",
      {|MR[grid:2x2], n=4, E_1, seed 1:
  all correct processes decided: true
  decision round (avg): 3.0
  simulation steps:     140
  messages sent:        152
  mailbox depth (hwm):  17
|} );
    ( "--quorum super:1 -n 5 -t 2 --seed 4",
      {|note: super:1 at n=5 has structural resilience 1 < t=2 — a crash pattern can leave no live quorum, and such runs (honestly) never decide
MR[super:1], n=5, E_2, seed 4:
  all correct processes decided: true
  decision round (avg): 2.0
  simulation steps:     155
  messages sent:        175
  mailbox depth (hwm):  9
|} );
    ( "--algo a_nuc -n 4 -t 1 --seed 7 --drop 0.1 --dup 0.05 --reorder 2 \
       --partition 20-60:0,1|2,3",
      {|fault spec: drop 0.1, dup 0.05, reorder 2, partitions [20,60]:{p0, p1}|{p2,
                                                                    p3}, seed 7
A_nuc, n=4, E_1, seed 7:
  all correct processes decided: false
  decision round (avg): 3.0
  simulation steps:     6000
  messages sent:        2472
  mailbox depth (hwm):  564
|} );
  ]

let test_run_pinned () =
  List.iter
    (fun (args, expected) ->
      Alcotest.(check string)
        ("run " ^ args) expected
        (run_cli ("run" :: String.split_on_char ' ' args)))
    run_pins

(* The quick B13, B7 and B5 sweeps, as their specs print them. *)
let test_sweep_tables_pinned () =
  let show spec rows = Format.asprintf "%a" (Report.Table.print spec) rows in
  Alcotest.(check string)
    "B13 quick"
    {|family                 n   t  minq  resil  runs  live  decided   rounds      steps  pass
majority               5   2     3      2     6     6        6     2.17       80.5  true
super:1                5   1     4      1     6     6        6     1.83      112.0  true
weighted:3,1,1,1,1     5   2     2      1     6     3        3     1.00       34.0  true
grid:2x2               4   1     3      1     6     6        6     1.67       64.0  true
grid:2x2               4   2     3      1     6     0        0      nan        nan  true
|}
    (show Experiments.b13_spec (Experiments.b13_quorum_table ~quick:true ()));
  Alcotest.(check string)
    "B7 quick"
    {|algorithm      drop  runs  decided   budget   steps_dec  net_dropped
A_nuc          0.00    10       10     6000       291.0          0.0
A_nuc          0.05    10        3     6000       465.3         57.1
A_nuc          0.20    10        0     6000         nan        272.2
|}
    (show Experiments.fault_spec (Experiments.fault_table ~quick:true ()));
  Alcotest.(check string)
    "B5 quick"
    {|variant                      scripted Sec-6.3 adversary                     runs  viols  rounds
A_nuc                        script blocked (mechanism engaged)                6      0    3.33
A_nuc[-awareness]            script blocked (mechanism engaged)                6      0    1.00
A_nuc[-distrust]             script completed, agreement held                  6      0    4.50
A_nuc[-distrust,-awareness]  VIOLATED nonuniform agreement                     6      0    1.00
|}
    (show Experiments.ablation_spec (Experiments.ablation ~quick:true ()))

(* ---------------------------------------------------------------- *)
(* Exit-code contract of the verification subcommands.

   `mc` and `fuzz` are meant to be CI gates, so their exit codes are
   interface, not detail: 0 means "verdict established" (exhausted
   with no violation, or a violation whose counterexample the
   independent certificates accept); 1 means "no trustworthy
   verdict" (state-budget truncation, or a counterexample that fails
   replay/history certification). These tests pin all four corners
   on the E_1(3) universe, where each run is fractions of a
   second. *)
(* ---------------------------------------------------------------- *)

let mc_naive_args =
  [ "mc"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--depth"; "32" ]

(* A conforming detector check: the generated history passes its
   checker, and the run exits 0. A history that fails it exits 1. *)
let test_check_conforms_exit () =
  let code, out =
    run_cli_status
      [
        "check"; "--detector"; "sigma_nu_plus"; "-n"; "5"; "-t"; "2";
        "--seed"; "3";
      ]
  in
  Alcotest.(check int) "conforming check exits 0" 0 code;
  Alcotest.(check string) "check stdout"
    {|pattern: n=5 crashes:[p3@78, p4@91]
Sigma-nu+: history of 1505 samples conforms
|}
    out

(* A state budget far below the depth-20 space: the checker must
   refuse to claim anything (exit 1, "TRUNCATED"), not report "no
   violation" for a space it never finished. *)
let test_mc_truncation_exit () =
  let code, out =
    run_cli_status
      [
        "mc"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--depth"; "20";
        "--max-states"; "500";
      ]
  in
  Alcotest.(check int) "truncated exploration exits 1" 1 code;
  Alcotest.(check bool)
    "output says TRUNCATED" true
    (contains out "TRUNCATED")

(* The same universe, deep enough for the Section 6.3 counterexample:
   a *certified* violation is a successful verdict (exit 0) with both
   certificates printed. *)
let test_mc_certified_cx_exit () =
  let code, out = run_cli_status mc_naive_args in
  Alcotest.(check int) "certified counterexample exits 0" 0 code;
  Alcotest.(check bool)
    "replay certificate printed" true
    (contains out "replay: accepted by Runner.replay");
  Alcotest.(check bool)
    "history certificate printed" true
    (contains out "detector history: perpetual clauses hold")

(* The negative path of the certificate: --selftest-corrupt-cx bumps
   every received envelope's sequence number before certification, so
   Runner.replay must reject and the exit code must flip to 1. This
   is the only way to regression-test that certification actually
   *can* fail — a bug that made replay vacuously accept would pass
   every positive test. *)
let test_mc_uncertified_cx_exit () =
  let code, out =
    run_cli_status (mc_naive_args @ [ "--selftest-corrupt-cx" ])
  in
  Alcotest.(check int) "uncertified counterexample exits 1" 1 code;
  Alcotest.(check bool)
    "replay rejected" true
    (contains out "replay: REJECTED")

(* fuzz: a certified violation exits 0, and the JSON report is
   byte-deterministic in the seed (wall-clock is deliberately not
   serialized). *)
let test_fuzz_json_deterministic () =
  let file suffix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nuc_fuzz_det_%d_%s.json" (Unix.getpid ()) suffix)
  in
  let f1 = file "a" and f2 = file "b" in
  let args json =
    [
      "fuzz"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--runs"; "100";
      "--seed"; "1"; "--json"; json;
    ]
  in
  let read f =
    let ic = open_in_bin f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ f1; f2 ])
    (fun () ->
      let code1, out1 = run_cli_status (args f1) in
      let code2, _ = run_cli_status (args f2) in
      Alcotest.(check int) "certified fuzz violation exits 0" 0 code1;
      Alcotest.(check int) "second run exits 0" 0 code2;
      Alcotest.(check bool)
        "violation found and certified" true
        (contains out1 "replay OK; history OK");
      Alcotest.(check string) "byte-identical JSON for identical seed"
        (read f1) (read f2))

(* ---------------------------------------------------------------- *)
(* --jobs: the parallel engines behind the same interface.

   The contract the flag ships with: fuzz output (and its JSON file)
   is byte-identical for any job count; mc agrees with the sequential
   run on the verdict and the distinct-state count (its
   interleaving-dependent counters may differ, so the comparison is
   on the parsed figures, not the bytes). *)
(* ---------------------------------------------------------------- *)

let test_fuzz_jobs_json_identical () =
  let file suffix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nuc_fuzz_jobs_%d_%s.json" (Unix.getpid ()) suffix)
  in
  let f1 = file "j1" and f4 = file "j4" in
  let args jobs json =
    [
      "fuzz"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--runs"; "100";
      "--seed"; "1"; "--jobs"; jobs; "--json"; json;
    ]
  in
  let read f =
    let ic = open_in_bin f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ f1; f4 ])
    (fun () ->
      let code1, _ = run_cli_status (args "1" f1) in
      let code4, _ = run_cli_status (args "4" f4) in
      Alcotest.(check int) "--jobs 1 exits 0" 0 code1;
      Alcotest.(check int) "--jobs 4 exits 0" 0 code4;
      Alcotest.(check string) "byte-identical JSON across job counts"
        (read f1) (read f4))

(* Pulls "<N> distinct states" out of the mc stats line. *)
let distinct_states_of out =
  let marker = " distinct states" in
  let nh = String.length out and nm = String.length marker in
  let rec find i =
    if i + nm > nh then Alcotest.failf "no distinct-states figure in:\n%s" out
    else if String.sub out i nm = marker then i
    else find (i + 1)
  in
  let stop = find 0 in
  let rec start i =
    if i > 0 && (match out.[i - 1] with '0' .. '9' -> true | _ -> false)
    then start (i - 1)
    else i
  in
  let b = start stop in
  int_of_string (String.sub out b (stop - b))

let test_mc_jobs_equivalent () =
  let args jobs =
    [
      "mc"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--depth"; "9";
      "--jobs"; jobs;
    ]
  in
  let out1 = run_cli (args "1") in
  let out2 = run_cli (args "2") in
  Alcotest.(check bool) "sequential run exhausts" true
    (contains out1 "exhausted: no violation");
  Alcotest.(check bool) "parallel run reaches the same verdict" true
    (contains out2 "exhausted: no violation");
  Alcotest.(check int) "same distinct-state count"
    (distinct_states_of out1) (distinct_states_of out2)

(* ---------------------------------------------------------------- *)
(* Checkpoint / resume: a truncated mc segment exits 1 (no
   trustworthy verdict yet), and resuming its checkpoint under a full
   budget reproduces the uninterrupted run's verdict and
   distinct-state count exactly. The corrupt-checkpoint selftest pins
   the negative path: a damaged file is a typed rejection and exit 1,
   never a crash or a silent fresh start. *)
(* ---------------------------------------------------------------- *)

let ckpt_file suffix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nuc_mc_ckpt_%d_%s.bin" (Unix.getpid ()) suffix)

let mc_ckpt_base =
  [ "mc"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--depth"; "9" ]

let test_mc_checkpoint_resume () =
  let path = ckpt_file "resume" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let out_straight = run_cli mc_ckpt_base in
      let code_t, out_t =
        run_cli_status
          (mc_ckpt_base
          @ [ "--max-states"; "500"; "--checkpoint"; path; "--ckpt-every"; "100" ])
      in
      Alcotest.(check int) "truncated segment exits 1" 1 code_t;
      Alcotest.(check bool) "segment says TRUNCATED" true
        (contains out_t "TRUNCATED");
      Alcotest.(check bool) "checkpoint file written" true
        (Sys.file_exists path);
      let code_r, out_r =
        run_cli_status (mc_ckpt_base @ [ "--resume"; path ])
      in
      Alcotest.(check int) "resumed campaign exits 0" 0 code_r;
      Alcotest.(check bool) "resumed campaign exhausts" true
        (contains out_r "exhausted: no violation");
      Alcotest.(check int)
        "resumed distinct states match the uninterrupted run"
        (distinct_states_of out_straight)
        (distinct_states_of out_r))

let test_mc_corrupt_checkpoint_rejected () =
  let path = ckpt_file "corrupt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ path; path ^ ".corrupt" ])
    (fun () ->
      let _ =
        run_cli_status
          (mc_ckpt_base
          @ [ "--max-states"; "500"; "--checkpoint"; path; "--ckpt-every"; "100" ])
      in
      let code, out =
        run_cli_status
          (mc_ckpt_base @ [ "--resume"; path; "--selftest-corrupt-checkpoint" ])
      in
      Alcotest.(check int) "corrupt checkpoint exits 1" 1 code;
      Alcotest.(check bool) "typed rejection printed" true
        (contains out "checkpoint rejected"))

let test_mc_corrupt_selftest_requires_resume () =
  let code, out =
    run_cli_status (mc_ckpt_base @ [ "--selftest-corrupt-checkpoint" ])
  in
  Alcotest.(check int) "selftest without --resume exits 1" 1 code;
  Alcotest.(check bool) "explains the missing flag" true
    (contains out "requires --resume")

(* serve with snapshot-served reads on the executor's ring transport:
   exits 0, prints an exec row and a B14 row, and the JSON gains the
   b14_ring fragment next to b10_serve — the same invocation shape the
   serve-smoke CI step drives. *)
let test_serve_ring_snapshot_reads () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_ring_%d.json" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let code, out =
        run_cli_status
          [
            "serve"; "--clients"; "10"; "--slots"; "30"; "--jobs"; "1";
            "--reads"; "200"; "--read-mode"; "snapshot"; "--publish-every";
            "4"; "--json"; path;
          ]
      in
      Alcotest.(check int) "serve ring/snapshot exits 0" 0 code;
      Alcotest.(check bool) "prints an exec row" true
        (contains out "exec(j=1)");
      Alcotest.(check bool) "prints a B14 row" true
        (contains out "snapshot    1");
      let ic = open_in path in
      let json = read_all ic in
      close_in ic;
      Alcotest.(check bool) "b10_serve fragment" true
        (contains json "\"b10_serve\"");
      Alcotest.(check bool) "b14_ring fragment" true
        (contains json "\"b14_ring\"");
      Alcotest.(check bool) "stale_ok is true" true
        (contains json "\"stale_ok\": true"))

(* ---------------------------------------------------------------- *)
(* Bad flag values: every one gets its pinned exit code — 124 for a
   value the parser refuses, 1 for flags that parse but do not fit
   together, 2 for a serve config Load.check refuses, 0 for a fuzz run
   budget that is merely huge — and a message. None may escape as an
   exception (125), hang, or exit 0 without doing the work it names.
   Each row runs under a deadline, so a hang fails the row instead of
   the suite. *)
(* ---------------------------------------------------------------- *)

(* Runs the CLI with a deadline: [Some code] when it exits, [None]
   when it is killed (by the deadline or a signal), and its output. *)
let run_cli_timed ?(timeout = 20.) args =
  let out = Filename.temp_file "nuc_cli" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process nuc_cli
      (Array.of_list (nuc_cli :: args))
      Unix.stdin fd fd
  in
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      None
    | _, Unix.WEXITED c -> Some c
    | _ -> None
  in
  let code = wait () in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

(* Cmdliner wraps long messages; match them with whitespace collapsed. *)
let squash s =
  String.concat " "
    (List.filter (( <> ) "")
       (String.split_on_char ' '
          (String.map (function '\n' | '\t' -> ' ' | c -> c) s)))

let bad_flags =
  let tmp = Filename.get_temp_dir_name () in
  let range lo = "expected an integer >= " ^ lo in
  let n_range = "expected an integer in [2, 62]" in
  [
    (* serve: refused by Load.check *)
    ([ "serve"; "--batch"; "5" ], 2, "serve: Smr: batch must be in [1, 4]");
    ([ "serve"; "--batch"; "0" ], 2, "serve: Smr: batch must be in [1, 4]");
    ([ "serve"; "--pipeline"; "0" ], 2, "serve: Smr: pipeline must be >= 1");
    ([ "serve"; "--window"; "0" ], 2, "serve: Smr: window must be >= 1");
    ([ "serve"; "--compaction"; "0" ], 2, "serve: Smr: retain must be >= 1");
    ([ "serve"; "-n"; "63" ], 2, "serve: Load: n must be <= 62");
    ([ "serve"; "-n"; "1" ], 2, "serve: Load: n must be >= 2");
    ([ "serve"; "--clients"; "0" ], 2, "serve: Load: clients must be >= 1");
    ([ "serve"; "--max-steps"; "0" ], 2, "serve: Load: max_steps must be >= 1");
    ( [ "serve"; "--publish-every"; "0" ],
      2,
      "serve: Load: publish_every must be >= 1" );
    (* sizes that would exhaust memory or never finish building *)
    ( [ "serve"; "--reads"; "1000000000000" ],
      2,
      "serve: Load: reads must be <= 1000000000" );
    ( [ "serve"; "--slots"; "1000000000000" ],
      2,
      "serve: Load: target_slots must be <= 1000000" );
    ( [ "serve"; "--slots"; "100000000000000000" ],
      2,
      "serve: Load: target_slots must be <= 1000000" );
    ( [ "serve"; "--clients"; "1000000000000" ],
      2,
      "serve: Load: clients must be <= 10000000" );
    ( [ "serve"; "--clients"; "10000000"; "--slots"; "1000000" ],
      2,
      "serve: Load: 10000000 clients x 2 commands exceeds 10000000 commands" );
    (* a run budget far past what the campaign needs: fuzz dispatches
       batches in bounded chunks and stops at batch 32's (--batch 1)
       or batch 0's violation, allocating nothing per planned batch *)
    ( [ "fuzz"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--seed"; "1";
        "--runs"; "100000000000"; "--batch"; "1" ],
      0,
      "replay OK; history OK" );
    ( [ "fuzz"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--seed"; "1";
        "--runs"; "4611686018427387903"; "--batch"; "1" ],
      0,
      "replay OK; history OK" );
    ( [ "fuzz"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--seed"; "1";
        "--runs"; "1000000000000" ],
      0,
      "replay OK; history OK" );
    (* process counts beyond Pset, or below two *)
    ([ "mc"; "-n"; "70" ], 124, n_range);
    ([ "fuzz"; "-n"; "70" ], 124, n_range);
    ([ "run"; "-n"; "70" ], 124, n_range);
    ([ "check"; "-n"; "70" ], 124, n_range);
    ([ "check"; "-n"; "0" ], 124, n_range);
    ([ "run"; "-n"; "1"; "-t"; "0" ], 124, n_range);
    ([ "run"; "-n"; "3"; "-t-1" ], 124, range "0");
    ([ "check"; "-t-1" ], 124, range "0");
    ([ "check"; "-n"; "3"; "-t"; "5" ], 1, "error: need t < n");
    (* counts out of range *)
    ([ "check"; "--horizon=-5" ], 124, range "0");
    ([ "fuzz"; "--max-steps=-3" ], 124, range "1");
    ([ "fuzz"; "--batch"; "0" ], 124, range "1");
    ([ "mc"; "-n"; "3"; "-t"; "1"; "--depth=-1" ], 124, range "0");
    ([ "fuzz"; "--algo"; "anuc"; "--swarm"; "--runs=-5" ], 124, range "1");
    ([ "fuzz"; "--max-batches"; "0" ], 124, range "1");
    ([ "mc"; "--family"; "lossy"; "--depth"; "3"; "--max-drops=-1" ], 124, range "0");
    (* output paths are checked before the run, not after it *)
    ( [
        "mc"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--depth"; "32";
        "--json"; "/nonexistent/x.json";
      ],
      124,
      "no '/nonexistent' directory" );
    ( [ "fuzz"; "-n"; "3"; "-t"; "1"; "--runs"; "100"; "--json"; "/nonexistent/x.json" ],
      124,
      "no '/nonexistent' directory" );
    ( [ "serve"; "--json"; "/nonexistent/x.json" ],
      124,
      "no '/nonexistent' directory" );
    ([ "mc"; "--depth"; "3"; "--json"; tmp ], 124, "is a directory");
    ( [ "mc"; "--depth"; "5"; "--ckpt-every"; "1"; "--checkpoint"; "/nonexistent/x.ck" ],
      124,
      "no '/nonexistent' directory" );
    ( [
        "fuzz"; "--algo"; "anuc"; "-n"; "3"; "-t"; "1"; "--runs"; "40";
        "--batch"; "10"; "--ckpt-every"; "1"; "--checkpoint";
        "/nonexistent/x.ck";
      ],
      124,
      "no '/nonexistent' directory" );
    ( [ "mc"; "--depth"; "5"; "--spill-dir"; "/nonexistent" ],
      124,
      "no '/nonexistent' directory" );
    ( [
        "mc"; "--algo"; "naive-sn"; "-n"; "3"; "-t"; "1"; "--resume";
        "/nonexistent/x"; "--selftest-corrupt-checkpoint";
      ],
      1,
      "error: /nonexistent/x" );
    ( [ "run"; "-n"; "3"; "-t"; "1"; "--partition"; "0-5:0,99|1" ],
      124,
      "bad partition" );
    ( [ "run"; "-n"; "4"; "-t"; "1"; "--partition"; "20-60:0,9|2,3" ],
      1,
      "error: partition pid 9 is out of range for n = 4" );
    (* unknown names *)
    ([ "serve"; "--transport"; "mutex" ], 124, "unknown option '--transport'");
    ([ "mc"; "--algo"; "foo" ], 124, "invalid value 'foo'");
    ([ "fuzz"; "--family"; "foo" ], 124, "invalid value 'foo'");
    ([ "fuzz"; "--sampler"; "pct0" ], 124, "unknown sampler");
    ([ "experiments"; "--only"; "e99" ], 124, "invalid value 'e99'");
    ([ "check"; "--detector"; "foo" ], 124, "invalid value 'foo'");
    ([ "scenario"; "foo" ], 124, "invalid value 'foo'");
  ]

let check_bad_flags rows =
  List.iter
    (fun (args, expected, msg) ->
      let what = String.concat " " args in
      let code, out = run_cli_timed args in
      (match code with
      | None -> Alcotest.failf "%s: killed or timed out:\n%s" what out
      | Some c -> Alcotest.(check int) (what ^ " exit code") expected c);
      Alcotest.(check bool)
        (Printf.sprintf "%s explains %S: %s" what msg out)
        true
        (contains (squash out) msg))
    rows

(* The serve rows Load.check refuses: exit 2 and the reason, never a
   run that reports a missed target. *)
let refused_by_load (_, code, _) = code = 2

let test_serve_bad_flags () =
  check_bad_flags (List.filter refused_by_load bad_flags)

let test_bad_flags () =
  check_bad_flags (List.filter (fun r -> not (refused_by_load r)) bad_flags)

(* ---------------------------------------------------------------- *)
(* Every mc/fuzz --algo target through the binary: a target with the
   wrong automaton, menu, flavour or default depth changes a stats
   line, a JSON digest or a depth field here. At depth 6 nobody
   decides yet, so the mc cells pin automaton and menus (the uniform
   baselines have one menu whatever the family); the fuzz runs
   decide, so their JSON also pins the flavour's stop scope. *)
(* ---------------------------------------------------------------- *)

let mc_pins =
  let every_family s = [ ("contamination", s); ("lossy", s); ("full", s) ] in
  [
    ( "anuc",
      11,
      [
        ( "contamination",
          "9029 transitions, 3392 distinct states (1709 dedup hits, 3487 \
           self-loops, 4532 sleep-pruned, 0 races, 0 backtracks), 0 decided \
           leaves, 2750 depth leaves" );
        ( "lossy",
          "36046 transitions, 10571 distinct states (8486 dedup hits, 10421 \
           self-loops, 14979 sleep-pruned, 0 races, 0 backtracks), 0 decided \
           leaves, 13754 depth leaves" );
        ( "full",
          "159377 transitions, 27915 distinct states (71909 dedup hits, 51909 \
           self-loops, 89982 sleep-pruned, 0 races, 0 backtracks), 0 decided \
           leaves, 28635 depth leaves" );
      ] );
    ( "naive-sn",
      34,
      [
        ( "contamination",
          "5454 transitions, 1747 distinct states (1125 dedup hits, 2361 \
           self-loops, 2883 sleep-pruned, 0 races, 0 backtracks), 0 decided \
           leaves, 1316 depth leaves" );
        ( "lossy",
          "26198 transitions, 6256 distinct states (7138 dedup hits, 8346 \
           self-loops, 10524 sleep-pruned, 0 races, 0 backtracks), 0 decided \
           leaves, 8282 depth leaves" );
        ( "full",
          "53633 transitions, 6991 distinct states (23016 dedup hits, 21508 \
           self-loops, 32384 sleep-pruned, 0 races, 0 backtracks), 0 decided \
           leaves, 6673 depth leaves" );
      ] );
    ( "mr-sigma",
      10,
      every_family
        "70537 transitions, 7384 distinct states (36916 dedup hits, 24029 \
         self-loops, 25555 sleep-pruned, 0 races, 0 backtracks), 0 decided \
         leaves, 7074 depth leaves" );
    ( "mr-majority",
      11,
      every_family
        "38035 transitions, 6867 distinct states (15451 dedup hits, 13642 \
         self-loops, 16082 sleep-pruned, 0 races, 0 backtracks), 0 decided \
         leaves, 6520 depth leaves" );
    ( "ct",
      13,
      every_family
        "6732 transitions, 802 distinct states (2467 dedup hits, 3138 \
         self-loops, 2190 sleep-pruned, 0 races, 0 backtracks), 0 decided \
         leaves, 718 depth leaves" );
  ]

(* MD5 of `fuzz --algo A -n 3 -t 1 --runs 300 --seed 1 --json`, plain
   and with --swarm. *)
let fuzz_pins =
  [
    ("anuc", "cb272e5e93af1eb958d8de2fb58d32ee", "9323334457c820f09cef49c56babccec");
    ("naive-sn", "5ed107f44d1017b18f4e37d1fa323130", "3c0182788ffd40527dbc941dce39c79c");
    ("mr-sigma", "a51ab7474d077748cf8b4298f96028ca", "a7181a4f16ec05b07e65dfa3f45e3893");
    ("mr-majority", "7b304f494ad27d1574269dc0b9079f5a", "acb9001431801413a5ec991061db60b8");
    ("ct", "3ecdc71a69ce9810a4b6171e5aa0c9c6", "3fc3b4994912a05890d2c97321609087");
  ]

(* MD5 of `fuzz --algo naive-sn -n 4 -t 1 --runs 300 --seed 1 --json`
   under extra flags: the benchmark's universe, [`Any] delivery, the
   lossy menu's drop moves, and a clean lossy campaign. The first
   three find, shrink and certify a violation; the last runs all 300
   runs. *)
let fuzz_pins_n4 =
  [
    ([], "4ac9c005b62d980fe4fa911d24800e41");
    ([ "--delivery"; "any" ], "89b94ae42c98629a6bff039a3eacffe9");
    ([ "--family"; "lossy" ], "a013ec80c1835d92f26cda8f0ec5f805");
    ( [ "--family"; "lossy"; "--delivery"; "any"; "--max-drops"; "2" ],
      "c1f9562bf923ac22f6e3e5a2edbea435" );
  ]

let test_fuzz_n4_pinned () =
  let json = Filename.temp_file "nuc_fuzz_n4" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove json with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (flags, md5) ->
          let args =
            [
              "fuzz"; "--algo"; "naive-sn"; "-n"; "4"; "-t"; "1"; "--runs";
              "300"; "--seed"; "1"; "--json"; json;
            ]
            @ flags
          in
          ignore (run_cli args);
          Alcotest.(check string)
            (String.concat " " args ^ " JSON digest")
            md5
            (Digest.to_hex (Digest.file json)))
        fuzz_pins_n4)

let test_every_target_pinned () =
  let json = Filename.temp_file "nuc_target" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove json with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (algo, default_depth, cells) ->
          List.iter
            (fun (family, stats) ->
              let out =
                run_cli
                  [
                    "mc"; "--algo"; algo; "-n"; "3"; "-t"; "1"; "--depth"; "6";
                    "--family"; family;
                  ]
              in
              Alcotest.(check bool)
                (Printf.sprintf "mc %s %s stats: %s" algo family out)
                true
                (contains out (stats ^ ", ")))
            cells;
          (* One state in, the run truncates; its JSON row names the
             target and its default depth. *)
          let code, _ =
            run_cli_status
              [
                "mc"; "--algo"; algo; "-n"; "3"; "-t"; "1"; "--max-states"; "1";
                "--json"; json;
              ]
          in
          Alcotest.(check int) (algo ^ " truncated run exits 1") 1 code;
          let row = In_channel.with_open_bin json In_channel.input_all in
          Alcotest.(check bool)
            (Printf.sprintf "mc %s row: %s" algo row)
            true
            (contains row (Printf.sprintf "\"algorithm\": \"%s\"" algo)
            && contains row (Printf.sprintf "\"depth\": %d," default_depth)))
        mc_pins;
      List.iter
        (fun (algo, plain, swarm) ->
          List.iter
            (fun (flags, md5) ->
              let args =
                [
                  "fuzz"; "--algo"; algo; "-n"; "3"; "-t"; "1"; "--runs"; "300";
                  "--seed"; "1"; "--json"; json;
                ]
                @ flags
              in
              ignore (run_cli args);
              Alcotest.(check string)
                (String.concat " " args ^ " JSON digest")
                md5
                (Digest.to_hex (Digest.file json)))
            [ ([], plain); ([ "--swarm" ], swarm) ])
        fuzz_pins);
  (* A flag name declared twice surfaces only when its subcommand
     runs, so render every subcommand's help. *)
  List.iter
    (fun sub -> ignore (run_cli [ sub; "--help=plain" ]))
    [ "run"; "experiments"; "check"; "scenario"; "ablation"; "mc"; "fuzz"; "serve" ]

(* MD5 of each example's stdout. fd_transform_demo prints every change
   of T_extract's output at p0, the extraction count and every final
   T_sigma_plus output, so its digest pins both transformations step
   for step; the others pin the Session, scripted and served paths the
   bench does not run. *)
let example_pins =
  [
    ("fd_transform_demo", "b426afd6b74491aab099f3f7d348c101");
    ("separation_demo", "fd29cfd74ceb821dd350701723dfe4bb");
    ("quickstart", "e45e5d17762f5f6cf6ab58c7f0daeb9d");
    ("contamination_demo", "1fb9941cc7d574b0635a350036c780eb");
    ("detector_tour", "8e7e6fc674b9b435cc0ef0ee4138f16c");
    ("replicated_log", "cf089634e23a71312e29d61e49c2d71d");
  ]

let test_examples_pinned () =
  List.iter
    (fun (name, md5) ->
      let exe = built "examples" (name ^ ".exe") in
      let ic = Unix.open_process_args_in exe [| exe |] in
      let out = read_all ic in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.failf "%s did not exit 0:\n%s" name out);
      Alcotest.(check string)
        (name ^ " stdout digest")
        md5
        (Digest.to_hex (Digest.string out)))
    example_pins

let () =
  Alcotest.run "cli"
    [
      ( "determinism",
        [
          Alcotest.test_case "run subcommand" `Quick test_cli_run_same_seed;
          Alcotest.test_case "faulty run subcommand" `Quick
            test_cli_faulty_run_same_seed;
          Alcotest.test_case "experiments subcommand" `Quick
            test_cli_experiments_same_seed;
          Alcotest.test_case "library rows" `Quick
            test_library_rows_same_seed;
        ] );
      ( "failure-rows",
        [
          Alcotest.test_case "starved E9 yields a failed row" `Quick
            test_e9_budget_failure_is_a_row;
        ] );
      ( "pins",
        [
          Alcotest.test_case "run stdout per algorithm and family" `Quick
            test_run_pinned;
          Alcotest.test_case "B13, B7 and B5 quick tables" `Quick
            test_sweep_tables_pinned;
          Alcotest.test_case "example stdout" `Quick test_examples_pinned;
        ] );
      ( "exit-codes",
        [
          Alcotest.test_case "mc truncation exits 1" `Quick
            test_mc_truncation_exit;
          Alcotest.test_case "mc certified cx exits 0" `Quick
            test_mc_certified_cx_exit;
          Alcotest.test_case "mc corrupted cx exits 1" `Quick
            test_mc_uncertified_cx_exit;
          Alcotest.test_case "fuzz JSON byte-deterministic" `Quick
            test_fuzz_json_deterministic;
          Alcotest.test_case "conforming check exits 0" `Quick
            test_check_conforms_exit;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "fuzz --jobs JSON byte-identical" `Quick
            test_fuzz_jobs_json_identical;
          Alcotest.test_case "mc --jobs verdict equivalent" `Quick
            test_mc_jobs_equivalent;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "mc kill/resume reproduces verdict" `Quick
            test_mc_checkpoint_resume;
          Alcotest.test_case "corrupt checkpoint exits 1" `Quick
            test_mc_corrupt_checkpoint_rejected;
          Alcotest.test_case "corrupt selftest requires --resume" `Quick
            test_mc_corrupt_selftest_requires_resume;
        ] );
      ( "serve",
        [
          Alcotest.test_case "ring + snapshot reads" `Quick
            test_serve_ring_snapshot_reads;
          Alcotest.test_case "bad flags exit 2" `Quick test_serve_bad_flags;
        ] );
      ( "flags",
        [
          Alcotest.test_case "bad values exit typed, never crash or hang"
            `Quick test_bad_flags;
          Alcotest.test_case "every mc/fuzz target pinned" `Quick
            test_every_target_pinned;
          Alcotest.test_case "naive-sn n = 4 fuzz pinned" `Quick
            test_fuzz_n4_pinned;
        ] );
    ]
