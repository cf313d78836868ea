(* The benchmark harness.

   The paper is a theory paper, so there are no tables or figures of
   measurements to replicate; its "evaluation" is a set of theorems.
   This harness regenerates, on every run, every section of
   [Experiments.sections], in order:

   - the E-table: one row per theorem/proof-scenario experiment
     (see DESIGN.md), each validated by independent property
     checkers over randomized or scripted runs;
   - the B-tables: decision latency across environments (B1),
     sensitivity to the detectors' stabilization time (B2), the cost
     of the DAG-based transformation machinery (B3), the mechanism
     ablation (B5), model-checker throughput (B6), liveness
     degradation under injected message loss (B7), randomized-explorer
     throughput and coverage saturation (B8), multicore scaling of
     both engines (B9), replicated-log serving (B10), partial-order
     reduction (B11), the packed state codec (B12), quorum families
     (B13), the ring transport with snapshot reads (B14) and bechamel
     microbenchmarks of the substrate hot paths (B4);
   - the counters of one instrumented reference run.

   Run with: dune exec bench/main.exe
   With --json [FILE] every section is also serialized to FILE
   (default BENCH_<date>.json), establishing the perf trajectory;
   see DESIGN.md for the schema (each table's column spec in
   lib/experiments is the authoritative row shape). With --smoke every
   sweep is cut to a few seconds' worth — for CI, where the point is
   that the harness runs and the E-table passes, not the numbers. *)

let pf = Format.printf

let hr title =
  pf "@.===================================================================@.";
  pf "%s@." title;
  pf "===================================================================@."

let default_json_file () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "BENCH_%04d-%02d-%02d.json" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

(* Recognizes [--json FILE], [--json] (default file name), [--smoke]
   and [--only KEY] (run one section and emit only its document
   fragment — what the CI smoke jobs validate without paying for the
   whole harness; KEY is a section's document key or the part of it
   before the first '_', e.g. b12_codec or b12). *)
let parse_args () =
  let rec scan json smoke only = function
    | [] -> (json, smoke, only)
    | "--smoke" :: rest -> scan json true only rest
    | "--only" :: key :: rest -> scan json smoke (Some key) rest
    | "--json" :: file :: rest when String.length file > 0 && file.[0] <> '-'
      ->
      scan (Some file) smoke only rest
    | "--json" :: rest -> scan (Some (default_json_file ())) smoke only rest
    | _ :: rest -> scan json smoke only rest
  in
  scan None false None (List.tl (Array.to_list Sys.argv))

let names_section key (s : Experiments.section) =
  key = s.key || key = List.hd (String.split_on_char '_' s.key)

let () =
  let json_file, smoke, only = parse_args () in
  pf "nonuniform-consensus benchmark harness%s@."
    (if smoke then " (smoke: reduced sweeps)" else "");
  let run (s : Experiments.section) =
    hr s.title;
    (s.key, s.run ~smoke)
  in
  let doc =
    match only with
    | None -> Experiments.document (List.map run Experiments.sections)
    | Some key -> (
      match List.find_opt (names_section key) Experiments.sections with
      | Some s -> Report.Obj [ run s ]
      | None ->
        pf "unknown --only key %S (expected %s)@." key
          (String.concat " | "
             (List.map (fun (s : Experiments.section) -> s.key)
                Experiments.sections));
        exit 2)
  in
  Option.iter
    (fun file ->
      Report.to_file file doc;
      pf "@.wrote %s@." file)
    json_file
