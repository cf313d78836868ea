(* Tests for the randomized schedule explorer (lib/explore): split-seed
   determinism, swarm rotation, coverage accounting, and the certified
   shrinker — the library-level half of the fuzz contract the CLI
   tests pin end to end. *)
open Procset

module Ex = Explore.Make (Consensus.Mr.With_quorum)

(* The E_1(3) fuzz universe, exactly as `nuc_cli fuzz -n 3 -t 1`
   builds it: pid 2 faulty, crash scheduled past the step budget,
   contaminating proposal 1. *)
let n = 3
let max_steps = 18 * n
let faulty = Pset.singleton 2
let proposals p = if Pset.mem p faulty then 1 else 0
let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (2, max_steps + 1) ]
let menu = Mc.Menu.contamination ~n ~faulty ()

let props =
  Ex.M.consensus_props ~decision:Consensus.Mr.With_quorum.decision ~proposals
    ~flavour:Consensus.Spec.Nonuniform ~pattern

let stop =
  Ex.M.decided_stop ~decision:Consensus.Mr.With_quorum.decision
    ~scope:(Sim.Failure_pattern.correct pattern)

let fuzz ?sampler ?swarm ?batch_size ?(shrink = true) ?jobs ~seed ~runs () =
  Ex.fuzz ~algo:"naive-sn" ?sampler ?swarm ?batch_size ~shrink ?jobs
    ~max_steps ~stop
    ~decided:(fun st -> Consensus.Mr.With_quorum.decision st <> None)
    ~seed ~runs ~n ~menu ~pattern ~inputs:proposals ~props ()

(* ---------------------------------------------------------------- *)
(* Determinism                                                      *)
(* ---------------------------------------------------------------- *)

(* Same seed, same bytes — at the library level, through the JSON
   serializer (which deliberately excludes wall-clock). *)
let test_json_byte_deterministic () =
  let r1 = fuzz ~seed:1 ~runs:100 () in
  let r2 = fuzz ~seed:1 ~runs:100 () in
  Alcotest.(check string) "byte-identical JSON for identical seed"
    (Report.to_string (Ex.json_of_report r1))
    (Report.to_string (Ex.json_of_report r2))

(* Parallel batch sharding must not move a byte: the report is
   deterministic in the arguments *including* [jobs] — per-batch
   trackers merged in batch order replay the sequential tracker
   exactly, and the earliest violating batch wins regardless of which
   domain ran it. Pinned on both report shapes: a campaign that stops
   at a violation (batch cutoff in play) and one that runs to
   completion (full curve merge). *)
let test_jobs_byte_identical_violation () =
  let bytes ~jobs =
    Report.to_string (Ex.json_of_report (fuzz ~jobs ~seed:1 ~runs:150 ()))
  in
  let base = bytes ~jobs:1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d matches jobs=1 (violation case)" jobs)
        base (bytes ~jobs))
    [ 2; 4 ]

let test_jobs_byte_identical_full_campaign () =
  let run ~jobs =
    Ex.fuzz ~algo:"naive-sn" ~batch_size:50 ~jobs ~max_steps ~stop
      ~decided:(fun st -> Consensus.Mr.With_quorum.decision st <> None)
      ~seed:4 ~runs:300 ~n ~menu ~pattern ~inputs:proposals ~props:[] ()
  in
  let bytes ~jobs = Report.to_string (Ex.json_of_report (run ~jobs)) in
  let base = bytes ~jobs:1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d matches jobs=1 (no-violation case)" jobs)
        base (bytes ~jobs))
    [ 2; 4 ]

(* Swarm draws are per batch — exactly the sharding unit — so the
   rotation must also be invariant under the job count. *)
let test_jobs_byte_identical_swarm () =
  let swarm =
    {
      Explore.sw_menus = [ menu; Mc.Menu.lossy ~n ~faulty () ];
      sw_budgets = [ 0; 1 ];
      sw_stabs = [ max_steps / 2; max_steps ];
      sw_samplers = [ Explore.Uniform; Pct 2; Pct 3 ];
    }
  in
  let run ~jobs =
    Ex.fuzz ~algo:"naive-sn" ~swarm ~batch_size:20 ~jobs ~max_steps ~stop
      ~decided:(fun st -> Consensus.Mr.With_quorum.decision st <> None)
      ~seed:5 ~runs:200 ~n ~menu ~pattern ~inputs:proposals ~props:[] ()
  in
  let bytes ~jobs = Report.to_string (Ex.json_of_report (run ~jobs)) in
  Alcotest.(check string) "jobs=3 matches jobs=1 (swarm case)"
    (bytes ~jobs:1) (bytes ~jobs:3)

(* Different seeds genuinely decorrelate the streams: the violating
   run index (or the coverage totals, when neither seed violates)
   must not coincide by construction. *)
let test_seeds_decorrelated () =
  let r1 = fuzz ~shrink:false ~seed:1 ~runs:50 () in
  let r2 = fuzz ~shrink:false ~seed:2 ~runs:50 () in
  let sig_of (r : Ex.report) =
    ( (match r.Ex.violation with Some v -> v.Ex.v_run | None -> -1),
      r.Ex.steps_total )
  in
  Alcotest.(check bool) "seed 1 and seed 2 runs differ" true
    (sig_of r1 <> sig_of r2)

(* PCT and uniform sample different schedule distributions from the
   same root seed. *)
let test_samplers_differ () =
  let ru = fuzz ~shrink:false ~sampler:Explore.Uniform ~seed:3 ~runs:50 () in
  let rp = fuzz ~shrink:false ~sampler:(Explore.Pct 3) ~seed:3 ~runs:50 () in
  Alcotest.(check string) "uniform labeled" "uniform" ru.Ex.sampler;
  Alcotest.(check string) "pct labeled" "pct3" rp.Ex.sampler;
  Alcotest.(check bool) "distinct schedule streams" true
    (ru.Ex.steps_total <> rp.Ex.steps_total
    || ru.Ex.totals.Explore.distinct_states
       <> rp.Ex.totals.Explore.distinct_states)

(* ---------------------------------------------------------------- *)
(* Swarm rotation and the coverage curve                            *)
(* ---------------------------------------------------------------- *)

let test_swarm_rotates_configurations () =
  let swarm =
    {
      Explore.sw_menus = [ menu; Mc.Menu.lossy ~n ~faulty () ];
      sw_budgets = [ 0; 1 ];
      sw_stabs = [ max_steps / 2; max_steps ];
      sw_samplers = [ Explore.Uniform; Pct 2; Pct 3 ];
    }
  in
  (* no properties: the naive algorithm violates within a few runs,
     and a violation stops the campaign — rotation needs all batches *)
  let r =
    Ex.fuzz ~algo:"naive-sn" ~swarm ~batch_size:20 ~max_steps ~stop
      ~decided:(fun st -> Consensus.Mr.With_quorum.decision st <> None)
      ~seed:5 ~runs:400 ~n ~menu ~pattern ~inputs:proposals ~props:[] ()
  in
  let distinct proj =
    List.sort_uniq compare (List.map proj r.Ex.curve) |> List.length
  in
  Alcotest.(check bool) "ran all batches" true (List.length r.Ex.curve >= 10);
  Alcotest.(check bool) "menus rotate" true
    (distinct (fun bp -> bp.Explore.bp_menu) >= 2);
  Alcotest.(check bool) "samplers rotate" true
    (distinct (fun bp -> bp.Explore.bp_sampler) >= 2);
  Alcotest.(check bool) "stabilization points rotate" true
    (distinct (fun bp -> bp.Explore.bp_stab) >= 2)

(* The saturation curve is an honest account of the totals: cumulative
   state counts never decrease, per-batch novelty sums to the final
   cumulative count, and the last point agrees with [totals]. *)
let test_curve_consistent_with_totals () =
  let r = fuzz ~shrink:false ~seed:4 ~runs:300 ~batch_size:50 () in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Explore.bp_states <= b.Explore.bp_states && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative states monotone" true (monotone r.Ex.curve);
  let new_sum =
    List.fold_left (fun acc bp -> acc + bp.Explore.bp_new_states) 0 r.Ex.curve
  in
  let last = List.nth r.Ex.curve (List.length r.Ex.curve - 1) in
  Alcotest.(check int) "novelty sums to the cumulative count"
    last.Explore.bp_states new_sum;
  Alcotest.(check int) "last curve point agrees with totals"
    r.Ex.totals.Explore.distinct_states last.Explore.bp_states

(* ---------------------------------------------------------------- *)
(* The certified shrinker                                           *)
(* ---------------------------------------------------------------- *)

(* At n = 3 the uniform sampler lands the Section 6.3 contamination
   violation within a few runs; the shrunk schedule must still
   violate, be strictly shorter, and carry both certificates. *)
let find_violation () =
  let r = fuzz ~seed:1 ~runs:200 () in
  match r.Ex.violation with
  | Some v -> v
  | None -> Alcotest.fail "seed 1 must find the n = 3 violation"

let test_shrunk_violation_certified () =
  let v = find_violation () in
  Alcotest.(check string) "property" "nonuniform agreement" v.Ex.v_property;
  Alcotest.(check bool) "strictly shorter than the sampled schedule" true
    (List.length v.Ex.v_shrunk < List.length v.Ex.v_moves);
  Alcotest.(check bool) "replay certificate" true v.Ex.v_replay_ok;
  Alcotest.(check bool) "history certificate" true v.Ex.v_history_ok;
  Alcotest.(check bool) "shrinker spent candidates" true (v.Ex.v_candidates > 0)

(* Shrinking is a fixpoint in practice: re-shrinking an already-shrunk
   schedule cannot grow it. *)
let test_shrink_does_not_grow () =
  let v = find_violation () in
  match
    Ex.shrink_schedule ~n ~inputs:proposals ~props v.Ex.v_shrunk
  with
  | Error e -> Alcotest.failf "shrunk schedule must still violate: %s" e
  | Ok (again, _) ->
    Alcotest.(check bool) "no growth on re-shrink" true
      (List.length again <= List.length v.Ex.v_shrunk)

(* ---------------------------------------------------------------- *)
(* Checkpoint / resume                                              *)
(* ---------------------------------------------------------------- *)

(* An interrupted-and-resumed campaign serializes byte-identically to
   the straight-through run: batch results are pure functions of
   (seed, batch index) and the merge is in batch order, so neither the
   interruption point nor the job count of either segment can move a
   byte of the report. [max_batches] is the deterministic interruption
   hook the CI smoke kills through. *)
let ckpt_run ?checkpoint ?resume ?max_batches ~jobs () =
  Ex.fuzz ~algo:"naive-sn" ~batch_size:50 ~jobs ?checkpoint ?resume
    ?max_batches ~max_steps ~stop
    ~decided:(fun st -> Consensus.Mr.With_quorum.decision st <> None)
    ~seed:4 ~runs:300 ~n ~menu ~pattern ~inputs:proposals ~props:[] ()

let with_ckpt_file f =
  let path = Filename.temp_file "nuc_fuzz_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_resume_byte_identical () =
  let straight = Report.to_string (Ex.json_of_report (ckpt_run ~jobs:1 ())) in
  List.iter
    (fun (j1, j2) ->
      with_ckpt_file (fun path ->
          let seg1 =
            ckpt_run ~jobs:j1 ~checkpoint:(path, 2) ~max_batches:3 ()
          in
          Alcotest.(check int)
            (Printf.sprintf "segment stopped at the batch cap (jobs=%d)" j1)
            150 seg1.Ex.runs;
          let resumed =
            ckpt_run ~jobs:j2 ~checkpoint:(path, 2) ~resume:path ()
          in
          Alcotest.(check string)
            (Printf.sprintf
               "interrupted(jobs=%d)+resumed(jobs=%d) matches straight-through"
               j1 j2)
            straight
            (Report.to_string (Ex.json_of_report resumed))))
    [ (1, 1); (1, 2); (2, 1); (2, 2) ]

(* The fuzz and mc checkpoints share the container but not the schema
   version, so resuming across kinds is a typed rejection, never a
   misinterpretation of the payload — checked both ways on real
   checkpoint files. *)
let test_checkpoint_wrong_kind_rejected () =
  let mc_run ?checkpoint ?resume () =
    Ex.M.run ~max_states:200 ?checkpoint ?resume ~stop ~n ~menu ~depth:8
      ~inputs:proposals ~props:[] ()
  in
  let rejected_version what f =
    match f () with
    | exception Mc.Resume_rejected (Mc.Codec.Bad_version v) -> v
    | exception Mc.Resume_rejected e ->
      Alcotest.failf "%s: wrong rejection: %s" what
        (Mc.Codec.error_to_string e)
    | _ -> Alcotest.failf "%s: checkpoint accepted" what
  in
  let mc_version =
    with_ckpt_file (fun path ->
        ignore (mc_run ~checkpoint:(path, 50) ());
        rejected_version "mc checkpoint into fuzz" (fun () ->
            ckpt_run ~jobs:1 ~resume:path ()))
  in
  let fuzz_version =
    with_ckpt_file (fun path ->
        ignore (ckpt_run ~jobs:1 ~checkpoint:(path, 1) ~max_batches:1 ());
        rejected_version "fuzz checkpoint into mc" (fun () ->
            mc_run ~resume:path ()))
  in
  Alcotest.(check bool)
    "mc and fuzz checkpoint versions differ" true (mc_version <> fuzz_version)

(* A schedule that never violates is a shrinker error, not a bogus
   one-move "counterexample". *)
let test_shrink_rejects_benign_schedule () =
  let v = find_violation () in
  (* the violating schedule minus its last move stops short of the
     violation whenever properties are checked after every move; the
     empty schedule certainly does *)
  match Ex.shrink_schedule ~n ~inputs:proposals ~props [] with
  | Error _ -> ()
  | Ok (moves, _) ->
    Alcotest.failf "empty schedule shrank to %d moves (raw %d)"
      (List.length moves)
      (List.length v.Ex.v_shrunk)

let () =
  Alcotest.run "explore"
    [
      ( "determinism",
        [
          Alcotest.test_case "JSON byte-deterministic in the seed" `Quick
            test_json_byte_deterministic;
          Alcotest.test_case "JSON byte-identical across jobs (violation)"
            `Quick test_jobs_byte_identical_violation;
          Alcotest.test_case "JSON byte-identical across jobs (full)" `Quick
            test_jobs_byte_identical_full_campaign;
          Alcotest.test_case "JSON byte-identical across jobs (swarm)" `Quick
            test_jobs_byte_identical_swarm;
          Alcotest.test_case "seeds decorrelated" `Quick test_seeds_decorrelated;
          Alcotest.test_case "samplers sample differently" `Quick
            test_samplers_differ;
        ] );
      ( "swarm-coverage",
        [
          Alcotest.test_case "swarm rotates configurations" `Quick
            test_swarm_rotates_configurations;
          Alcotest.test_case "curve consistent with totals" `Quick
            test_curve_consistent_with_totals;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "interrupted+resumed JSON byte-identical" `Quick
            test_checkpoint_resume_byte_identical;
          Alcotest.test_case "mc checkpoint rejected by fuzz" `Quick
            test_checkpoint_wrong_kind_rejected;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "shrunk violation certified" `Quick
            test_shrunk_violation_certified;
          Alcotest.test_case "re-shrink does not grow" `Quick
            test_shrink_does_not_grow;
          Alcotest.test_case "benign schedule rejected" `Quick
            test_shrink_rejects_benign_schedule;
        ] );
    ]
