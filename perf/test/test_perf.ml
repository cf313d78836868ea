(* The benchmark's own checks, at smoke sizes: traced twins reproduce
   their untraced calls exactly, the printed result honours the
   harness contract and BENCHMARK.json, and a wrong output fails the
   run. *)

open Perfbench

let opts ?(corrupt = false) workload =
  { Bench.workload; seed = 1; seconds = 1.; smoke = true; trace_dir = "trace-out"; corrupt }

(* ---------------- traced = untraced ---------------- *)

let twin workload () =
  let o = opts workload in
  for i = 0 to Bench.smoke_calls workload - 1 do
    let c = Bench.untraced_call o i in
    Alcotest.(check (list string)) "untraced call is correct" [] c.problems;
    let counts, problems = Bench.traced_call o ~parent:0 i in
    Alcotest.(check (list string)) "traced call is correct" [] problems;
    Alcotest.(check (list (pair string int))) "traced counters" c.counts counts
  done

let depth7_pin () =
  let depth = Bench.mc_depth ~smoke:true in
  let inp = Verify.inputs ~depth in
  let stop =
    Verify.M.decided_stop ~decision:Core.Anuc.decision
      ~scope:(Sim.Failure_pattern.correct inp.pattern)
  in
  let r =
    Verify.M.run ~reduction:Mc.No_reduction ~n:Verify.n ~menu:inp.menu ~depth
      ~inputs:Verify.proposals ~props:inp.props ~stop ()
  in
  Alcotest.(check (option int))
    "pinned count = unreduced count" (Some r.stats.distinct_states)
    (List.assoc_opt depth Verify.expected_states)

(* ---------------- the command and its output ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Runs perf.exe; returns its exit code and stdout lines. *)
let perf args =
  let out = Filename.temp_file "perf" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "../perf.exe %s --trace-dir trace-out > %s 2>/dev/null"
         (String.concat " " args) (Filename.quote out))
  in
  let lines = String.split_on_char '\n' (String.trim (read_file out)) in
  Sys.remove out;
  (code, lines)

type result = { correct : bool; attempted : int; failed : int; metrics : (string * (float * string)) list }

let parse line =
  let field re =
    ignore (Str.search_forward (Str.regexp re) line 0);
    Str.matched_group 1 line
  in
  let metric = Str.regexp {|"\([^"]+\)": {"value": \([^,]+\), "unit": "\([^"]+\)"}|} in
  let rec metrics pos acc =
    match Str.search_forward metric line pos with
    | exception Not_found -> List.rev acc
    | _ ->
      let m =
        ( Str.matched_group 1 line,
          (float_of_string (Str.matched_group 2 line), Str.matched_group 3 line) )
      in
      metrics (Str.match_end ()) (m :: acc)
  in
  {
    correct = bool_of_string (field {|"correct": \([a-z]+\)|});
    attempted = int_of_string (field {|"attempted": \([0-9]+\)|});
    failed = int_of_string (field {|"failed": \([0-9]+\)|});
    metrics = metrics 0 [];
  }

let last lines = parse (List.nth lines (List.length lines - 1))

(* (name, unit) of the metrics in one section of BENCHMARK.json. *)
let declared section =
  let s = read_file "../../BENCHMARK.json" in
  let start = Str.search_forward (Str.regexp_string ("\"" ^ section ^ "\"")) s 0 in
  let stop = String.index_from s start ']' in
  let body = String.sub s start (stop - start) in
  let entry = Str.regexp {|"name": *"\([^"]+\)", *"unit": *"\([^"]+\)"|} in
  let rec go pos acc =
    match Str.search_forward entry body pos with
    | exception Not_found -> List.rev acc
    | _ -> go (Str.match_end ()) ((Str.matched_group 1 body, Str.matched_group 2 body) :: acc)
  in
  go 0 []

let workload_names = List.map Bench.name Bench.workloads

let declared_workloads () =
  let s = read_file "../../BENCHMARK.json" in
  let entry = Str.regexp {|{ *"name": *"\([^"]+\)", *"why":|} in
  let rec go pos acc =
    match Str.search_forward entry s pos with
    | exception Not_found -> List.rev acc
    | _ -> go (Str.match_end ()) (Str.matched_group 1 s :: acc)
  in
  go 0 []

let valid_name = Str.regexp {|^[A-Za-z0-9_.-]+$|}

let contract trace () =
  let want = declared (if trace = "1" then "per_layer" else "end_to_end") in
  Alcotest.(check bool) "BENCHMARK.json declares metrics" true (want <> []);
  Alcotest.(check (list string)) "workloads match BENCHMARK.json" workload_names
    (declared_workloads ());
  List.iter
    (fun w ->
      let code, lines = perf [ "--smoke"; "--workload"; w; "--trace"; trace ] in
      Alcotest.(check int) (w ^ " exits 0") 0 code;
      let r = last lines in
      Alcotest.(check bool) (w ^ " correct") true r.correct;
      Alcotest.(check int) (w ^ " nothing failed") 0 r.failed;
      Alcotest.(check bool) (w ^ " attempted some") true (r.attempted >= 1);
      List.iter
        (fun (name, (_, unit)) ->
          Alcotest.(check bool) (name ^ " is a valid name") true (Str.string_match valid_name name 0);
          Alcotest.(check bool) (name ^ " has a unit") true (unit <> ""))
        r.metrics;
      Alcotest.(check (list (pair string string)))
        (w ^ " prints exactly the declared metrics")
        (List.sort compare want)
        (List.sort compare (List.map (fun (n, (_, u)) -> (n, u)) r.metrics)))
    workload_names

let timing_unit u = List.mem u [ "%"; "s"; "ms"; "1/s" ]

let traced_all = lazy (perf [ "--smoke"; "--trace"; "1" ])

let counts_deterministic () =
  let code1, l1 = Lazy.force traced_all and code2, l2 = perf [ "--smoke"; "--trace"; "1" ] in
  Alcotest.(check (pair int int)) "both exit 0" (0, 0) (code1, code2);
  let counts lines =
    List.filter
      (fun (name, (_, u)) ->
        (not (timing_unit u)) && not (Str.string_match (Str.regexp ".*\\.trace\\.") name 0))
      (last lines).metrics
  in
  let c1 = counts l1 and c2 = counts l2 in
  Alcotest.(check bool) "count metrics printed" true (List.length c1 > 40);
  List.iter2
    (fun (n1, (v1, _)) (n2, (v2, _)) ->
      Alcotest.(check string) "same metric" n1 n2;
      Alcotest.(check (float 0.)) n1 v1 v2)
    c1 c2

(* Self times are non-negative and the layers close to the traced wall. *)
let self_times_close () =
  let _, lines = Lazy.force traced_all in
  let metrics = (last lines).metrics in
  List.iter
    (fun w ->
      let shares =
        List.filter_map
          (fun (name, (v, _)) ->
            let prefix = w ^ "." in
            let pl = String.length prefix in
            if
              String.length name > pl
              && String.sub name 0 pl = prefix
              && Filename.check_suffix name ".self_pct"
            then Some (name, v)
            else None)
          metrics
      in
      List.iter (fun (n, v) -> Alcotest.(check bool) (n ^ " >= 0") true (v >= 0.)) shares;
      let total = List.fold_left (fun a (_, v) -> a +. v) 0. shares in
      Alcotest.(check bool)
        (Printf.sprintf "%s layers sum to the traced wall (%.3f%%)" w total)
        true
        (Float.abs (total -. 100.) <= 1.))
    workload_names

(* ---------------- wrong outputs fail ---------------- *)

let serve_outcome () =
  let spec = Bench.serve_spec ~smoke:true Bench.Serve_write in
  let cfg = Serve.config spec ~seed:1 in
  (cfg, Serve.streams cfg, Serve.untraced spec cfg)

let fabricated_serve () =
  let cfg, streams, o = serve_outcome () in
  Alcotest.(check (list string)) "real outcome passes" [] (Serve.problems cfg streams o);
  List.iter
    (fun (what, o') ->
      Alcotest.(check bool) what true (Serve.problems cfg streams o' <> []))
    [
      ("divergent", { o with Load.o_divergent = true });
      ("target missed", { o with o_reached = false });
      ( "command applied twice",
        { o with o_log = (match List.filter (( <> ) Smr.noop) o.o_log with c :: _ -> c :: o.o_log | [] -> o.o_log) } );
    ]

let fabricated_mc () =
  let depth = Bench.mc_depth ~smoke:true in
  let r = Verify.untraced ~depth (Verify.inputs ~depth) in
  let problems ?(violated = false) s = Verify.problems ~depth ~violated s in
  Alcotest.(check (list string)) "real report passes" []
    (problems ~violated:(r.violation <> None) r.stats);
  Alcotest.(check bool) "violation fails" true (problems ~violated:true r.stats <> []);
  Alcotest.(check bool) "truncated fails" true
    (problems { r.stats with Mc.truncated = true } <> []);
  Alcotest.(check bool) "wrong state count fails" true
    (problems { r.stats with Mc.distinct_states = r.stats.distinct_states + 1 } <> [])

let fabricated_hunt () =
  let r = Hunt.untraced ~seed:(Hunt.seed_of ~seed:1 0) (Hunt.inputs ()) in
  Alcotest.(check (list string)) "real hunt passes" [] (Hunt.problems r);
  let v = Option.get r.violation in
  List.iter
    (fun (what, r') -> Alcotest.(check bool) what true (Hunt.problems r' <> []))
    [
      ("uncertified", { r with violation = Some { v with v_replay_ok = false } });
      ("illegal history", { r with violation = Some { v with v_history_ok = false } });
      ("no counterexample", { r with violation = None });
      ("grew when shrunk", { r with violation = Some { v with v_shrunk = v.v_moves @ v.v_moves } });
    ]

let command_fails () =
  List.iter
    (fun w ->
      let code, lines = perf [ "--smoke"; "--workload"; w; "--selftest-fail" ] in
      Alcotest.(check int) (w ^ " exits 1") 1 code;
      let r = last lines in
      Alcotest.(check bool) (w ^ " not correct") false r.correct;
      Alcotest.(check int) (w ^ " fail ratio is 1") r.attempted r.failed)
    workload_names

let bad_arguments () =
  let code, _ = perf [ "--workload"; "no-such-workload" ] in
  Alcotest.(check int) "unknown workload exits 2" 2 code

let () =
  Alcotest.run "perf"
    [
      ( "traced-twin",
        List.map
          (fun w -> Alcotest.test_case (Bench.name w) `Quick (twin w))
          Bench.workloads
        @ [ Alcotest.test_case "mc smoke depth pinned" `Quick depth7_pin ] );
      ( "contract",
        [
          Alcotest.test_case "end-to-end metrics" `Quick (contract "0");
          Alcotest.test_case "per-layer metrics" `Quick (contract "1");
          Alcotest.test_case "counts deterministic" `Quick counts_deterministic;
          Alcotest.test_case "self times close" `Quick self_times_close;
          Alcotest.test_case "bad arguments" `Quick bad_arguments;
        ] );
      ( "wrong-output",
        [
          Alcotest.test_case "served log" `Quick fabricated_serve;
          Alcotest.test_case "mc report" `Quick fabricated_mc;
          Alcotest.test_case "hunt" `Quick fabricated_hunt;
          Alcotest.test_case "command exits 1" `Quick command_fails;
        ] );
    ]
