(* perf.exe — the repository benchmark. See perf/README.md.

   perf.exe [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1]
            [--smoke] [--trace-dir DIR]

   Prints every metric by name with its unit, then, as the last line,
   one JSON object {correct, attempted, failed, metrics}. Exits 1 when
   any output check fails. *)

open Perfbench

let usage =
  "perf.exe [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--trace-dir \
   DIR]\nworkloads: "
  ^ String.concat ", " (List.map Bench.name Bench.workloads)

let fail msg =
  prerr_endline ("perf: " ^ msg);
  prerr_endline usage;
  exit 2

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
  let smoke = ref false and trace_dir = ref "perf/out" and corrupt = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all (default)");
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "T size each workload's run to about T seconds (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 1 runs the traced pass for per-layer metrics");
      ("--smoke", Arg.Set smoke, " tiny fixed-size calls, for tests");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where traced passes write Chrome traces");
      ( "--selftest-fail",
        Arg.Set corrupt,
        " fabricate a wrong output in every call; the run must fail" );
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> fail ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> fail (List.hd (String.split_on_char '\n' msg))
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds > 0.) then fail "--seconds must be positive";
  let selected =
    if !workload = "all" then Bench.workloads
    else
      match Bench.of_name !workload with
      | Some w -> [ w ]
      | None -> fail ("unknown workload " ^ !workload)
  in
  let results =
    List.map
      (fun w ->
        let opts =
          {
            Bench.workload = w;
            seed = !seed;
            seconds = !seconds;
            smoke = !smoke;
            trace_dir = !trace_dir;
            corrupt = !corrupt;
          }
        in
        let r = if !trace = 1 then Bench.traced opts else Bench.untraced opts in
        List.iter (fun p -> Printf.eprintf "%s: %s\n" (Bench.name w) p) r.problems;
        List.iter
          (fun ((mt : Bench.metric), v) ->
            Printf.printf "%-12s %-30s %16.6g %s\n" (Bench.name w) mt.m_name v mt.m_unit)
          r.metrics;
        Printf.printf "%-12s %-30s %16d of %d attempted\n" (Bench.name w) "failed" r.failed
          r.attempted;
        if !trace = 1 then Printf.printf "%-12s trace written to %s\n" (Bench.name w) (Bench.trace_path opts);
        (w, r))
      selected
  in
  let correct = List.for_all (fun (_, (r : Bench.result)) -> r.correct) results in
  let last =
    match results with
    | [ (_, r) ] -> Bench.json_line r
    | _ ->
      let all_metrics =
        List.concat_map
          (fun (w, (r : Bench.result)) ->
            List.map
              (fun ((mt : Bench.metric), v) -> ({ mt with m_name = Bench.name w ^ "." ^ mt.m_name }, v))
              r.metrics)
          results
      in
      let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 results in
      Bench.json_line
        {
          correct;
          attempted = sum (fun r -> r.attempted);
          failed = sum (fun r -> r.failed);
          metrics = all_metrics;
          problems = [];
        }
  in
  print_endline last;
  exit (if correct then 0 else 1)
