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

(* Resolve the binary relative to this test executable, so the test
   works both under `dune runtest` (cwd = test dir) and `dune exec`
   (cwd = workspace root). *)
let nuc_cli =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "nuc_cli.exe"))

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

(* serve with the ring transport and snapshot-served reads: exits 0,
   prints a B14 row, and the JSON gains the b14_ring fragment next to
   b10_serve — the same invocation shape the serve-smoke CI step
   drives. *)
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
            "--transport"; "ring"; "--reads"; "200"; "--read-mode";
            "snapshot"; "--publish-every"; "4"; "--json"; path;
          ]
      in
      Alcotest.(check int) "serve ring/snapshot exits 0" 0 code;
      Alcotest.(check bool) "prints a ring B14 row" true
        (contains out "ring   snapshot");
      let ic = open_in path in
      let json = read_all ic in
      close_in ic;
      Alcotest.(check bool) "b10_serve fragment" true
        (contains json "\"b10_serve\"");
      Alcotest.(check bool) "b14_ring fragment" true
        (contains json "\"b14_ring\"");
      Alcotest.(check bool) "stale_ok is true" true
        (contains json "\"stale_ok\": true"))

(* Every out-of-range serve flag is refused up front by [Load.check]:
   exit 2 and the reason, never an uncaught exception (exit 125) and
   never a run that reports a missed target. *)
let test_serve_bad_flags () =
  List.iter
    (fun (flags, msg) ->
      let code, out = run_cli_status ("serve" :: flags) in
      let what = String.concat " " flags in
      Alcotest.(check int) (what ^ " exits 2") 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s explains: %s" what out)
        true
        (contains out ("serve: " ^ msg)))
    [
      ([ "--batch"; "5" ], "Smr: batch must be in [1, 4]");
      ([ "--batch"; "0" ], "Smr: batch must be in [1, 4]");
      ([ "--pipeline"; "0" ], "Smr: pipeline must be >= 1");
      ([ "--window"; "0" ], "Smr: window must be >= 1");
      ([ "--compaction"; "0" ], "Smr: retain must be >= 1");
      ([ "-n"; "63" ], "Load: n must be <= 62");
      ([ "-n"; "1" ], "Load: n must be >= 2");
      ([ "--clients"; "0" ], "Load: clients must be >= 1");
      ([ "--max-steps"; "0" ], "Load: max_steps must be >= 1");
      ([ "--publish-every"; "0" ], "Load: publish_every must be >= 1");
    ]

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
    ]
