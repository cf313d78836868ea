(* nuc_cli — command-line driver for the nonuniform-consensus
   reproduction.

   Subcommands:
     run          one consensus run (a_nuc | mr_majority | mr_sigma | stack)
     experiments  the E-table of theorem validations (see DESIGN.md)
     check        generate an oracle history and validate it
     scenario     the proof scenarios (contamination | separation)
     mc           exhaustive bounded model checking (lib/mc)
     fuzz         randomized schedule exploration (lib/explore)
     serve        closed-loop replicated-log serving (lib/smr Load driver)

   Every subcommand that consumes randomness takes --seed (default 0,
   deterministic); mc and scenario are fully deterministic, and fuzz
   is deterministic in --seed. *)

open Procset


let pf = Format.printf

(* ---------------------------------------------------------------- *)
(* run                                                               *)
(* ---------------------------------------------------------------- *)

let parse_algo = function
  | "a_nuc" -> Ok Experiments.Anuc
  | "mr_majority" -> Ok Experiments.Mr_majority
  | "mr_sigma" -> Ok Experiments.Mr_sigma
  | "stack" -> Ok Experiments.Stack
  | "ct" -> Ok Experiments.Ct
  | s ->
    Error
      (`Msg
         (Printf.sprintf
            "unknown algorithm %S (expected a_nuc | mr_majority | mr_sigma \
             | stack | ct)"
            s))

let algo_conv =
  Cmdliner.Arg.conv
    ( parse_algo,
      fun fmt a ->
        Format.pp_print_string fmt
          (match a with
          | Experiments.Anuc -> "a_nuc"
          | Experiments.Mr_majority -> "mr_majority"
          | Experiments.Mr_sigma -> "mr_sigma"
          | Experiments.Stack -> "stack"
          | Experiments.Ct -> "ct") )

(* --partition 20-60:0,1|2,3 — window FROM-UNTIL, then '|'-separated
   connectivity groups of ','-separated pids. *)
let partition_conv =
  let parse s =
    let err =
      `Msg
        (Printf.sprintf
           "bad partition %S (expected FROM-UNTIL:G|G|... e.g. 20-60:0,1|2,3)"
           s)
    in
    try
      match String.split_on_char ':' s with
      | [ window; gs ] -> (
        match String.split_on_char '-' window with
        | [ a; b ] ->
          let groups =
            String.split_on_char '|' gs
            |> List.map (fun g ->
                   Pset.of_list
                     (List.map
                        (fun x -> int_of_string (String.trim x))
                        (String.split_on_char ',' g)))
          in
          Ok
            {
              Sim.Faults.from_t = int_of_string (String.trim a);
              until_t = int_of_string (String.trim b);
              groups;
            }
        | _ -> Error err)
      | _ -> Error err
    with Failure _ -> Error err
  in
  Cmdliner.Arg.conv (parse, Sim.Faults.pp_partition)

let quorum_conv =
  Cmdliner.Arg.conv
    ( (fun s ->
        Result.map_error (fun e -> `Msg e) (Quorum_family.of_string s)),
      Quorum_family.pp )

(* Surfaces Quorum_family's typed errors (bad shape for this n, or no
   quorum at all) instead of letting them escape as exceptions. *)
let require_family_fits fam ~n =
  match Quorum_family.validate fam ~n ~live:(Pset.full ~n) with
  | Ok () -> ()
  | Error e ->
    pf "error: %s@." (Quorum_family.error_to_string e);
    exit 1

let run_consensus algo quorum n t seed drop dup reorder partitions =
  if t >= n then (
    pf "error: need t < n@.";
    exit 1);
  if quorum = None
     && (algo = Experiments.Mr_majority || algo = Experiments.Ct)
     && 2 * t >= n
  then (
    pf "error: this algorithm requires t < n/2 (got n=%d t=%d)@." n t;
    exit 1);
  let faults =
    try Sim.Faults.make ~drop ~dup ~reorder ~partitions ~seed ()
    with Invalid_argument m ->
      pf "error: %s@." m;
      exit 1
  in
  if not (Sim.Faults.is_none faults) then
    pf "fault spec: %a@." Sim.Faults.pp faults;
  let r =
    match quorum with
    | None -> Experiments.latency ~faults algo ~n ~t ~seeds:[ seed ]
    | Some fam ->
      require_family_fits fam ~n;
      let res = Quorum_family.resilience fam ~n in
      if res < t then
        pf "note: %s at n=%d has structural resilience %d < t=%d — a \
            crash pattern can leave no live quorum, and such runs \
            (honestly) never decide@."
          (Quorum_family.name fam) n res t;
      Experiments.latency_family ~faults fam ~n ~t ~seeds:[ seed ]
  in
  pf "%s, n=%d, E_%d, seed %d:@."  r.Experiments.algorithm n t seed;
  pf "  all correct processes decided: %b@."
    (r.Experiments.decided = r.Experiments.runs);
  pf "  decision round (avg): %.1f@." r.Experiments.avg_rounds;
  pf "  simulation steps:     %.0f@." r.Experiments.avg_steps;
  pf "  messages sent:        %.0f@." r.Experiments.avg_msgs;
  pf "  mailbox depth (hwm):  %.0f@." r.Experiments.avg_hwm

(* ---------------------------------------------------------------- *)
(* experiments                                                       *)
(* ---------------------------------------------------------------- *)

let run_ablation quick seed =
  Report.Table.print Experiments.ablation_spec Format.std_formatter
    (Experiments.ablation ~quick ~seed_base:seed ())

let run_experiments quick only seed =
  let rows =
    match only with
    | None -> Experiments.all ~quick ~seed_base:seed ()
    | Some id -> (
      let pick =
        [
          ("e1", fun ~quick -> Experiments.e1_extract_sigma_nu ~quick ~seed_base:seed);
          ("e2", fun ~quick -> Experiments.e2_extract_sigma ~quick ~seed_base:seed);
          ("e3", fun ~quick -> Experiments.e3_boost ~quick ~seed_base:seed);
          ("e4", fun ~quick -> Experiments.e4_anuc ~quick ~seed_base:seed);
          ("e5", fun ~quick -> Experiments.e5_stack ~quick ~seed_base:seed);
          ("e6", fun ~quick -> Experiments.e6_contamination ~quick ~seed_base:seed);
          ("e7", fun ~quick -> Experiments.e7_sigma_scratch ~quick ~seed_base:seed);
          ("e8", fun ~quick -> Experiments.e8_attack ~quick);
          ("e9", fun ~quick -> Experiments.e9_merge ~quick ?step_budget:None);
          ("e10", fun ~quick -> Experiments.e10_not_uniform ~quick);
          ("e11", fun ~quick -> Experiments.e11_model_check ~quick);
          ("e12", fun ~quick -> Experiments.e12_faults ~quick ~seed_base:seed);
          ("e13", fun ~quick -> Experiments.e13_fuzz ~quick ~seed_base:seed);
          ("e14", fun ~quick -> Experiments.e14_dpor ~quick);
          ("e16", fun ~quick -> Experiments.e16_quorum ~quick ~seed_base:seed);
        ]
      in
      match List.assoc_opt (String.lowercase_ascii id) pick with
      | Some f -> [ f ~quick () ]
      | None ->
        pf "unknown experiment %S (expected e1..e14 | e16)@." id;
        exit 1)
  in
  List.iter (fun r -> pf "%a@.@." Experiments.pp_row r) rows;
  if List.for_all (fun r -> r.Experiments.pass) rows then pf "ALL PASS@."
  else begin
    pf "SOME EXPERIMENTS FAILED@.";
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* check                                                             *)
(* ---------------------------------------------------------------- *)

let run_check detector n t seed horizon =
  let env = Sim.Env.make ~n ~max_faulty:t in
  let rng = Random.State.make [| seed |] in
  let pattern = Sim.Env.random_pattern rng ~crash_window:(horizon / 3) env in
  pf "pattern: %a@." Sim.Failure_pattern.pp pattern;
  let stab = (2 * horizon) / 3 in
  let check name oracle checker =
    let h = Fd.Oracle.history ~horizon ~n oracle in
    match checker h with
    | Ok () -> pf "%s: history of %d samples conforms@." name ((horizon + 1) * n)
    | Error v -> pf "%s: VIOLATION %a@." name Fd.Check.pp_violation v
  in
  match detector with
  | "omega" ->
    check "Omega"
      (Fd.Oracle.omega ~seed ~stab_time:stab pattern)
      (Fd.Check.omega ~max_stab:stab pattern)
  | "sigma" ->
    check "Sigma"
      (Fd.Oracle.sigma ~seed ~stab_time:stab pattern)
      (Fd.Check.sigma ~max_stab:stab pattern)
  | "sigma_nu" ->
    check "Sigma-nu"
      (Fd.Oracle.sigma_nu ~seed ~stab_time:stab pattern)
      (Fd.Check.sigma_nu ~max_stab:stab pattern)
  | "sigma_nu_plus" ->
    check "Sigma-nu+"
      (Fd.Oracle.sigma_nu_plus ~seed ~stab_time:stab pattern)
      (Fd.Check.sigma_nu_plus ~max_stab:stab pattern)
  | "eventually_strong" ->
    check "<>S"
      (Fd.Oracle.eventually_strong ~seed ~stab_time:stab pattern)
      (Fd.Check.eventually_strong ~max_stab:stab pattern)
  | s ->
    pf "unknown detector %S (omega | sigma | sigma_nu | sigma_nu_plus | \
        eventually_strong)@."
      s;
    exit 1

(* ---------------------------------------------------------------- *)
(* scenario                                                          *)
(* ---------------------------------------------------------------- *)

let run_scenario name =
  let report o =
    List.iter (fun line -> pf "%s@." line) o.Core.Scenario.trace;
    pf "agreement violated: %b; adversary history legal: %b@."
      o.Core.Scenario.agreement_violated
      (Result.is_ok o.Core.Scenario.history_valid)
  in
  match name with
  | "contamination" -> report (Core.Scenario.contamination_naive_mr ())
  | "contamination_unsafe_anuc" ->
    report (Core.Scenario.contamination_anuc_unsafe ())
  | "separation" ->
    let module Atk = Core.Separation.Attack (Core.Separation.Sigma_scratch) in
    List.iter
      (fun (n, t) ->
        pf "--- n=%d t=%d ---@." n t;
        match Atk.run ~n ~t ~inputs:(fun _ -> t) () with
        | Ok o -> pf "%a@." Atk.pp_outcome o
        | Error e -> pf "%s@." e)
      [ (4, 1); (4, 2); (6, 3) ]
  | s ->
    pf "unknown scenario %S (contamination | contamination_unsafe_anuc | \
        separation)@."
      s;
    exit 1

(* ---------------------------------------------------------------- *)
(* mc                                                                *)
(* ---------------------------------------------------------------- *)

(* One model-checking drive, shared by every algorithm. The faulty
   processes of the pattern crash past the depth bound, so the clauses
   of the detector class treat them as faulty while every schedule up
   to the bound may still step them. *)
module Mc_drive (A : sig
  include Sim.Automaton.S with type input = Consensus.Value.t

  val decision : state -> Consensus.Value.t option
end) =
struct
  module M = Mc.Make (A)

  (* [corrupt] (--selftest-corrupt-cx) deliberately damages a found
     counterexample before certification — the negative-path selftest
     for the certification machinery and its nonzero exit code. *)
  let go ~algo ~n ~faulty ~menu ~depth ~flavour ~max_states ~max_drops
      ~delivery ~jobs ~reduction ~json ~corrupt ~checkpoint ~resume
      ~spill_dir =
    let proposals p = if Pset.mem p faulty then 1 else 0 in
    let crashes = Pset.fold (fun p l -> (p, depth + 1) :: l) faulty [] in
    let pattern = Sim.Failure_pattern.make ~n ~crashes in
    (match Mc.Menu.validate ~pattern menu with
    | Ok () -> pf "menu %s: admissible@." menu.Mc.Menu.name
    | Error e ->
      pf "menu %s: INADMISSIBLE (%s)@." menu.Mc.Menu.name e;
      exit 1);
    let props =
      M.consensus_props ~decision:A.decision ~proposals ~flavour ~pattern
    in
    (* The stop scope must match the agreement flavour: uniform
       agreement/validity constrain faulty processes' decisions too
       (they keep stepping until depth + 1), so for uniform checks a
       state only counts as a goal once *every* process decided —
       stopping when the correct ones decided would prune
       continuations in which a faulty process decides a conflicting
       or unproposed value. *)
    let stop_scope =
      match flavour with
      | Consensus.Spec.Uniform -> Pset.full ~n
      | Consensus.Spec.Nonuniform -> Sim.Failure_pattern.correct pattern
    in
    let stop = M.decided_stop ~decision:A.decision ~scope:stop_scope in
    let r =
      try
        M.run ~reduction ~n ~menu ~depth ~inputs:proposals ~props ~stop
          ~max_states ?max_drops ~delivery ~jobs ?checkpoint ?resume
          ?spill_dir ()
      with Mc.Resume_rejected e ->
        pf "checkpoint rejected: %s@." (Mc.Codec.error_to_string e);
        exit 1
    in
    pf "%a@." Mc.pp_stats r.M.stats;
    (match json with
    | None -> ()
    | Some path ->
      (* One b11_dpor row for this run; [pass] records only that the
         verdict is conclusive (not truncated) — a found violation is
         the expected outcome for the naive baseline. *)
      let outcome =
        if r.M.stats.Mc.truncated then "TRUNCATED"
        else
          match r.M.violation with
          | None -> "exhausted"
          | Some cx -> "VIOLATION: " ^ cx.M.cx_property
      in
      let row =
        Experiments.b11_row_of_stats ~algorithm:algo ~reduction ~depth
          ~outcome
          ~pass:(not r.M.stats.Mc.truncated)
          r.M.stats
      in
      Report.to_file path
        (Report.Obj
           [ ("b11_dpor", Report.Table.rows Experiments.b11_spec [ row ]) ]);
      pf "wrote %s@." path);
    match r.M.violation with
    | None ->
      if r.M.stats.Mc.truncated then begin
        pf "exploration TRUNCATED at %d states — verdict inconclusive@."
          max_states;
        exit 1
      end
      else pf "exhausted: no violation within depth %d@." depth
    | Some cx ->
      let cx =
        if not corrupt then cx
        else
          {
            cx with
            M.cx_steps =
              List.map
                (fun (s : M.R.replay_step) ->
                  match s.r_received with
                  | None -> s
                  | Some env ->
                    {
                      s with
                      r_received =
                        Some { env with Sim.Envelope.seq = env.seq + 1000 };
                    })
                cx.M.cx_steps;
          }
      in
      if corrupt then pf "selftest: corrupted counterexample receives@.";
      pf "%a@." M.pp_counterexample cx;
      let ok_replay =
        match M.replay_counterexample ~n ~inputs:proposals cx with
        | Ok _ ->
          pf "replay: accepted by Runner.replay@.";
          true
        | Error e ->
          pf "replay: REJECTED (%s)@." e;
          false
      in
      let ok_hist =
        match
          Mc.history_legal ~kind:menu.Mc.Menu.kind ~pattern cx.M.cx_samples
        with
        | Ok () ->
          pf "detector history: perpetual clauses hold@.";
          true
        | Error e ->
          pf "detector history: ILLEGAL (%s)@." e;
          false
      in
      if not (ok_replay && ok_hist) then exit 1

  let default_go ~algo ~n ~faulty ~max_states ~max_drops ~delivery ~jobs
      ~reduction ~json ~flavour ~corrupt ~checkpoint ~resume ~spill_dir
      ~default_depth ~menu depth_opt =
    let depth = Option.value depth_opt ~default:default_depth in
    go ~algo ~n ~faulty ~menu ~depth ~flavour ~max_states ~max_drops
      ~delivery ~jobs ~reduction ~json ~corrupt ~checkpoint ~resume
      ~spill_dir
end

module Mc_anuc_drive = Mc_drive (Core.Anuc)
module Mc_naive_drive = Mc_drive (Consensus.Mr.With_quorum)
module Mc_maj_drive = Mc_drive (Consensus.Mr.Majority)
module Mc_ct_drive = Mc_drive (Consensus.Ct)

(* --selftest-corrupt-checkpoint: flip one byte of the --resume file
   and resume from the damaged copy — the digest check must reject it
   with a typed error and a nonzero exit, never a Marshal crash. *)
let corrupt_checkpoint_copy path =
  let b =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let b = Bytes.create len in
        really_input ic b 0 len;
        b)
  in
  let len = Bytes.length b in
  if len = 0 then (
    pf "error: checkpoint %s is empty@." path;
    exit 1);
  Bytes.set b (len - 1) (Char.chr (Char.code (Bytes.get b (len - 1)) lxor 1));
  let path' = path ^ ".corrupt" in
  let oc = open_out_bin path' in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc b);
  pf "selftest: flipped last byte of %s into %s@." path path';
  path'

let run_mc algo n t depth_opt family quorum max_states max_drops delivery
    jobs reduction json corrupt checkpoint_path ckpt_every resume spill_dir
    corrupt_ckpt =
  if t >= n || t < 1 then (
    pf "error: need 1 <= t < n@.";
    exit 1);
  if jobs < 1 then (
    pf "error: --jobs must be >= 1@.";
    exit 1);
  if ckpt_every < 1 then (
    pf "error: --ckpt-every must be >= 1@.";
    exit 1);
  let resume =
    match (resume, corrupt_ckpt) with
    | Some path, true -> Some (corrupt_checkpoint_copy path)
    | None, true ->
      pf "error: --selftest-corrupt-checkpoint requires --resume@.";
      exit 1
    | r, false -> r
  in
  let checkpoint =
    Option.map (fun p -> (p, ckpt_every)) checkpoint_path
  in
  let reduction =
    match String.lowercase_ascii reduction with
    | "dpor" -> Mc.Dpor
    | "sleep" -> Mc.Sleep_sets
    | "none" -> Mc.No_reduction
    | s ->
      pf "unknown reduction %S (dpor | sleep | none)@." s;
      exit 1
  in
  let delivery =
    match String.lowercase_ascii delivery with
    | "fifo" -> `Fifo
    | "any" -> `Any
    | s ->
      pf "unknown delivery model %S (fifo | any)@." s;
      exit 1
  in
  let family =
    match String.lowercase_ascii family with
    | "contamination" -> `Contamination
    | "lossy" -> `Lossy
    | "full" -> `Full
    | s ->
      pf "unknown menu family %S (contamination | lossy | full)@." s;
      exit 1
  in
  let faulty = Pset.of_list (List.init t (fun i -> n - 1 - i)) in
  (match quorum with
  | None -> ()
  | Some fam ->
    require_family_fits fam ~n;
    if family = `Full then (
      pf "error: --quorum shapes the contamination/lossy menus only \
          (the 'full' class menus quantify over every legal value)@.";
      exit 1));
  let need_majority () =
    if 2 * t >= n then (
      pf "error: this algorithm requires t < n/2 (got n=%d t=%d)@." n t;
      exit 1)
  in
  let no_quorum () =
    if quorum <> None then (
      pf "error: --quorum only applies to the Sigma-nu algorithms \
          (anuc | naive-sn)@.";
      exit 1)
  in
  match String.lowercase_ascii algo with
  | "anuc" ->
    Mc_anuc_drive.default_go ~algo ~n ~faulty ~max_states
      ~max_drops ~delivery ~jobs ~reduction ~json ~corrupt ~checkpoint
      ~resume ~spill_dir ~flavour:Consensus.Spec.Nonuniform ~default_depth:11
      ~menu:
        (match family with
        | `Contamination ->
          Mc.Menu.contamination ~plus:true ?quorum ~n ~faulty ()
        | `Lossy -> Mc.Menu.lossy ~plus:true ?quorum ~n ~faulty ()
        | `Full -> Mc.Menu.omega_sigma_nu_plus ~n ~faulty)
      depth_opt
  | "naive-sn" ->
    Mc_naive_drive.default_go ~algo ~n ~faulty ~max_states
      ~max_drops ~delivery ~jobs ~reduction ~json ~corrupt ~checkpoint
      ~resume ~spill_dir ~flavour:Consensus.Spec.Nonuniform ~default_depth:34
      ~menu:
        (match family with
        | `Contamination -> Mc.Menu.contamination ?quorum ~n ~faulty ()
        | `Lossy -> Mc.Menu.lossy ?quorum ~n ~faulty ()
        | `Full -> Mc.Menu.omega_sigma_nu ~n ~faulty)
      depth_opt
  | "mr-sigma" ->
    no_quorum ();
    Mc_naive_drive.default_go ~algo ~n ~faulty ~max_states
      ~max_drops ~delivery ~jobs ~reduction ~json ~corrupt ~checkpoint
      ~resume ~spill_dir ~flavour:Consensus.Spec.Uniform ~default_depth:10
      ~menu:(Mc.Menu.omega_sigma ~n ~faulty)
      depth_opt
  | "mr-majority" ->
    no_quorum ();
    need_majority ();
    Mc_maj_drive.default_go ~algo ~n ~faulty ~max_states
      ~max_drops ~delivery ~jobs ~reduction ~json ~corrupt ~checkpoint
      ~resume ~spill_dir ~flavour:Consensus.Spec.Uniform ~default_depth:11
      ~menu:(Mc.Menu.leader_only ~n ~faulty)
      depth_opt
  | "ct" ->
    no_quorum ();
    need_majority ();
    Mc_ct_drive.default_go ~algo ~n ~faulty ~max_states
      ~max_drops ~delivery ~jobs ~reduction ~json ~corrupt ~checkpoint
      ~resume ~spill_dir ~flavour:Consensus.Spec.Uniform ~default_depth:13
      ~menu:(Mc.Menu.suspects ~n ~faulty)
      depth_opt
  | s ->
    pf "unknown algorithm %S (anuc | naive-sn | mr-majority | mr-sigma | \
        ct)@."
      s;
    exit 1

(* ---------------------------------------------------------------- *)
(* fuzz                                                              *)
(* ---------------------------------------------------------------- *)

(* One fuzzing drive, shared by every algorithm; mirrors [Mc_drive]
   but samples schedules ([Explore]) instead of enumerating them. The
   faulty processes crash past the step bound, exactly as in mc. *)
module Fuzz_drive (A : sig
  include Sim.Automaton.S with type input = Consensus.Value.t

  val decision : state -> Consensus.Value.t option
end) =
struct
  module E = Explore.Make (A)
  module M = E.M

  let go ~algo ~n ~faulty ~menu ~swarm_menus ~flavour ~runs ~sampler ~swarm
      ~shrink ~seed ~delivery ~max_steps ~max_drops ~batch ~jobs ~json
      ~checkpoint ~resume ~max_batches =
    let proposals p = if Pset.mem p faulty then 1 else 0 in
    let crashes = Pset.fold (fun p l -> (p, max_steps + 1) :: l) faulty [] in
    let pattern = Sim.Failure_pattern.make ~n ~crashes in
    List.iter
      (fun (m : Mc.Menu.t) ->
        match Mc.Menu.validate ~pattern m with
        | Ok () -> pf "menu %s: admissible@." m.name
        | Error e ->
          pf "menu %s: INADMISSIBLE (%s)@." m.name e;
          exit 1)
      (menu :: if swarm then swarm_menus else []);
    let props =
      M.consensus_props ~decision:A.decision ~proposals ~flavour ~pattern
    in
    let stop_scope =
      match flavour with
      | Consensus.Spec.Uniform -> Pset.full ~n
      | Consensus.Spec.Nonuniform -> Sim.Failure_pattern.correct pattern
    in
    let stop = M.decided_stop ~decision:A.decision ~scope:stop_scope in
    let decided st = A.decision st <> None in
    let swarm_cfg =
      if not swarm then None
      else
        Some
          {
            Explore.sw_menus = menu :: swarm_menus;
            sw_budgets = [ 0; 1; 2 ];
            sw_stabs = [ max_steps / 3; (2 * max_steps) / 3; max_steps ];
            sw_samplers = [ Explore.Uniform; Pct 2; Pct 3; Pct 4 ];
          }
    in
    let report =
      try
        E.fuzz ~algo ~sampler ?swarm:swarm_cfg ~batch_size:batch ~delivery
          ~max_steps ~max_drops ~shrink ~jobs ?checkpoint ?resume
          ?max_batches ~stop ~decided ~seed ~runs ~n ~menu ~pattern
          ~inputs:proposals ~props ()
      with Mc.Resume_rejected e ->
        pf "checkpoint rejected: %s@." (Mc.Codec.error_to_string e);
        exit 1
    in
    pf "%a@." E.pp_report report;
    (match json with
    | None -> ()
    | Some path ->
      Report.to_file path (E.json_of_report report);
      pf "wrote %s@." path);
    match report.E.violation with
    | None -> ()
    | Some v ->
      if not (v.E.v_replay_ok && v.E.v_history_ok) then (
        pf "violation NOT CERTIFIED — failing@.";
        exit 1)
end

module Fuzz_anuc_drive = Fuzz_drive (Core.Anuc)
module Fuzz_naive_drive = Fuzz_drive (Consensus.Mr.With_quorum)
module Fuzz_maj_drive = Fuzz_drive (Consensus.Mr.Majority)
module Fuzz_ct_drive = Fuzz_drive (Consensus.Ct)

let parse_sampler s =
  match String.lowercase_ascii s with
  | "uniform" -> Ok Explore.Uniform
  | "pct" -> Ok (Explore.Pct 3)
  | s when String.length s > 3 && String.sub s 0 3 = "pct" -> (
    match int_of_string_opt (String.sub s 3 (String.length s - 3)) with
    | Some d when d >= 1 -> Ok (Explore.Pct d)
    | _ -> Error (Printf.sprintf "bad PCT depth in %S" s))
  | s -> Error (Printf.sprintf "unknown sampler %S (uniform | pct | pctD)" s)

let run_fuzz algo n t runs sampler_s swarm shrink seed delivery_s max_steps_opt
    max_drops batch family quorum jobs json checkpoint_path ckpt_every resume
    max_batches =
  if t >= n || t < 1 then (
    pf "error: need 1 <= t < n@.";
    exit 1);
  if jobs < 1 then (
    pf "error: --jobs must be >= 1@.";
    exit 1);
  if ckpt_every < 1 then (
    pf "error: --ckpt-every must be >= 1@.";
    exit 1);
  let checkpoint =
    Option.map (fun p -> (p, ckpt_every)) checkpoint_path
  in
  let sampler =
    match parse_sampler sampler_s with
    | Ok s -> s
    | Error e ->
      pf "error: %s@." e;
      exit 1
  in
  let delivery =
    match String.lowercase_ascii delivery_s with
    | "fifo" -> `Fifo
    | "any" -> `Any
    | s ->
      pf "unknown delivery model %S (fifo | any)@." s;
      exit 1
  in
  let max_steps = Option.value max_steps_opt ~default:(18 * n) in
  let faulty = Pset.of_list (List.init t (fun i -> n - 1 - i)) in
  (match quorum with
  | None -> ()
  | Some fam ->
    require_family_fits fam ~n;
    if String.lowercase_ascii family = "full" then (
      pf "error: --quorum shapes the contamination/lossy menus only \
          (the 'full' class menus quantify over every legal value)@.";
      exit 1));
  let no_quorum () =
    if quorum <> None then (
      pf "error: --quorum only applies to the Sigma-nu algorithms \
          (anuc | naive-sn)@.";
      exit 1)
  in
  let need_majority () =
    if 2 * t >= n then (
      pf "error: this algorithm requires t < n/2 (got n=%d t=%d)@." n t;
      exit 1)
  in
  let pick_family ~contamination ~lossy ~full =
    match String.lowercase_ascii family with
    | "contamination" -> contamination ()
    | "lossy" -> lossy ()
    | "full" -> full ()
    | s ->
      pf "unknown menu family %S (contamination | lossy | full)@." s;
      exit 1
  in
  match String.lowercase_ascii algo with
  | "anuc" ->
    Fuzz_anuc_drive.go ~algo ~n ~faulty ~flavour:Consensus.Spec.Nonuniform
      ~menu:
        (pick_family
           ~contamination:(fun () ->
             Mc.Menu.contamination ~plus:true ?quorum ~n ~faulty ())
           ~lossy:(fun () -> Mc.Menu.lossy ~plus:true ?quorum ~n ~faulty ())
           ~full:(fun () -> Mc.Menu.omega_sigma_nu_plus ~n ~faulty))
      ~swarm_menus:
        [
          Mc.Menu.lossy ~plus:true ?quorum ~n ~faulty ();
          Mc.Menu.omega_sigma_nu_plus ~n ~faulty;
        ]
      ~runs ~sampler ~swarm ~shrink ~seed ~delivery ~max_steps ~max_drops
      ~batch ~jobs ~json ~checkpoint ~resume ~max_batches
  | "naive-sn" ->
    Fuzz_naive_drive.go ~algo ~n ~faulty ~flavour:Consensus.Spec.Nonuniform
      ~menu:
        (pick_family
           ~contamination:(fun () ->
             Mc.Menu.contamination ?quorum ~n ~faulty ())
           ~lossy:(fun () -> Mc.Menu.lossy ?quorum ~n ~faulty ())
           ~full:(fun () -> Mc.Menu.omega_sigma_nu ~n ~faulty))
      ~swarm_menus:
        [
          Mc.Menu.lossy ?quorum ~n ~faulty ();
          Mc.Menu.omega_sigma_nu ~n ~faulty;
        ]
      ~runs ~sampler ~swarm ~shrink ~seed ~delivery ~max_steps ~max_drops
      ~batch ~jobs ~json ~checkpoint ~resume ~max_batches
  | "mr-sigma" ->
    no_quorum ();
    Fuzz_naive_drive.go ~algo ~n ~faulty ~flavour:Consensus.Spec.Uniform
      ~menu:(Mc.Menu.omega_sigma ~n ~faulty)
      ~swarm_menus:[] ~runs ~sampler ~swarm ~shrink ~seed ~delivery
      ~max_steps ~max_drops ~batch ~jobs ~json ~checkpoint ~resume ~max_batches
  | "mr-majority" ->
    no_quorum ();
    need_majority ();
    Fuzz_maj_drive.go ~algo ~n ~faulty ~flavour:Consensus.Spec.Uniform
      ~menu:(Mc.Menu.leader_only ~n ~faulty)
      ~swarm_menus:[] ~runs ~sampler ~swarm ~shrink ~seed ~delivery
      ~max_steps ~max_drops ~batch ~jobs ~json ~checkpoint ~resume ~max_batches
  | "ct" ->
    no_quorum ();
    need_majority ();
    Fuzz_ct_drive.go ~algo ~n ~faulty ~flavour:Consensus.Spec.Uniform
      ~menu:(Mc.Menu.suspects ~n ~faulty)
      ~swarm_menus:[] ~runs ~sampler ~swarm ~shrink ~seed ~delivery
      ~max_steps ~max_drops ~batch ~jobs ~json ~checkpoint ~resume ~max_batches
  | s ->
    pf "unknown algorithm %S (anuc | naive-sn | mr-majority | mr-sigma | \
        ct)@."
      s;
    exit 1

(* ---------------------------------------------------------------- *)
(* serve                                                             *)
(* ---------------------------------------------------------------- *)

(* Closed-loop clients over the replicated log: always one run on the
   deterministic simulator (the replayable reference), plus one on the
   concurrent executor when --jobs > 1, --transport ring, or a read
   workload is requested. Exits 1 if any run shows divergent
   live-replica logs, misses its slot target, or serves a snapshot
   read staler than the declared bound — the same gates the
   serve-smoke CI job relies on. *)
let run_serve n clients slots batch window pipeline compaction jobs seed
    transport reads read_mode publish_every max_steps json =
  if n < 2 then (
    pf "serve: n must be >= 2@.";
    exit 2);
  if clients < 1 || slots < 1 then (
    pf "serve: clients and slots must be >= 1@.";
    exit 2);
  if reads < 0 || publish_every < 1 then (
    pf "serve: --reads must be >= 0 and --publish-every >= 1@.";
    exit 2);
  let commands_per_client =
    max 2 (((2 * batch * slots) + clients - 1) / clients)
  in
  let cfg =
    {
      Load.default with
      n;
      clients;
      commands_per_client;
      batch;
      pipeline;
      window;
      retain = compaction;
      horizon = max pipeline compaction;
      target_slots = slots;
      max_steps;
      seed;
      continuous_check = true;
      transport;
      reads;
      read_mode;
      publish_every;
    }
  in
  pf "serve: n=%d clients=%d slots=%d batch=%d window=%d pipeline=%d \
      compaction=%d seed=%d transport=%s reads=%d read-mode=%s \
      publish-every=%d@."
    n clients slots batch window pipeline compaction seed
    (Sim.Executor.transport_name transport)
    reads
    (Load.read_mode_name read_mode)
    publish_every;
  let b10 = Experiments.b10_spec and b14 = Experiments.b14_spec in
  pf "%s@." (Report.Table.header b10);
  let sim_out = Load.run_sim cfg in
  let rows = ref [ Experiments.b10_row ~substrate:"sim" cfg sim_out ] in
  pf "%a@." (Report.Table.pp_row b10) (List.hd !rows);
  let outcomes = ref [ sim_out ] in
  let b14_rows = ref [] in
  if jobs > 1 || transport <> Sim.Executor.Mutex || reads > 0 then begin
    let exec_out = Load.run_exec ~jobs cfg in
    let row =
      Experiments.b10_row
        ~substrate:
          (Printf.sprintf "exec(j=%d,%s)" jobs
             (Sim.Executor.transport_name transport))
        cfg exec_out
    in
    pf "%a@." (Report.Table.pp_row b10) row;
    rows := !rows @ [ row ];
    outcomes := !outcomes @ [ exec_out ];
    if reads > 0 then b14_rows := [ Experiments.b14_row ~jobs cfg exec_out ]
  end;
  if !b14_rows <> [] then Report.Table.print b14 Format.std_formatter !b14_rows;
  (match json with
  | None -> ()
  | Some path ->
    let fragments =
      ("b10_serve", Report.Table.rows b10 !rows)
      ::
      (if !b14_rows = [] then []
       else [ ("b14_ring", Report.Table.rows b14 !b14_rows) ])
    in
    Report.to_file path (Report.Obj fragments);
    pf "wrote %s@." path);
  let divergent = List.exists (fun o -> o.Load.o_divergent) !outcomes in
  let unreached = List.exists (fun o -> not o.Load.o_reached) !outcomes in
  let stale =
    List.exists (fun o -> o.Load.o_stale_max > o.Load.o_stale_bound) !outcomes
  in
  if divergent then pf "FAILED: live replica logs diverged@.";
  if unreached then
    pf "FAILED: slot target not reached within --max-steps@.";
  if stale then
    pf "FAILED: snapshot read staleness exceeded the declared bound@.";
  if divergent || unreached || stale then exit 1

(* ---------------------------------------------------------------- *)
(* cmdliner plumbing                                                 *)
(* ---------------------------------------------------------------- *)

open Cmdliner

let n_arg =
  Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let t_arg =
  Arg.(
    value & opt int 2
    & info [ "t" ] ~docv:"T" ~doc:"Maximum number of faulty processes.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* Shared by mc and fuzz. Both engines are deterministic in their
   arguments *excluding* jobs for mc (one task-queue engine, run
   inline at jobs = 1, where every counter is reproducible; at
   jobs > 1 verdict and distinct states agree with jobs = 1 while
   interleaving-dependent counters may differ) and *including* jobs
   for fuzz (byte-identical JSON for any job count). *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"J"
        ~doc:
          "Explore with $(docv) parallel domains (default 1: the same \
           engine, run inline). mc: same verdict and distinct-states \
           count as --jobs 1; fuzz: byte-identical report for any \
           $(docv).")

let quorum_arg =
  Arg.(
    value
    & opt (some quorum_conv) None
    & info [ "quorum" ] ~docv:"FAMILY"
        ~doc:
          "Quorum family: majority | super:F | weighted:W0,W1,... | \
           grid[:RxC]. run: execute MR parameterized by the family \
           (overrides --algo; detector reduced to Omega). mc / fuzz: \
           shape the contamination and lossy Sigma-nu(+) menus around \
           the family's minimal quorums instead of the built-in \
           majority-style menus (anuc and naive-sn only). Ill-fitting \
           families (e.g. grid on a non-tiling n) are rejected with a \
           typed error.")

let run_cmd =
  let algo =
    Arg.(
      value
      & opt algo_conv Experiments.Anuc
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"Algorithm: a_nuc | mr_majority | mr_sigma | stack | ct.")
  in
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P"
          ~doc:
            "Drop each cross-process message with probability $(docv) \
             (deterministic in --seed).")
  in
  let dup =
    Arg.(
      value & opt float 0.0
      & info [ "dup" ] ~docv:"P"
          ~doc:
            "Deliver each surviving cross-process message twice with \
             probability $(docv).")
  in
  let reorder =
    Arg.(
      value & opt int 0
      & info [ "reorder" ] ~docv:"W"
          ~doc:
            "Let a delivered message jump ahead of up to $(docv) queued \
             messages at its destination.")
  in
  let partition =
    Arg.(
      value
      & opt_all partition_conv []
      & info [ "partition" ] ~docv:"SPEC"
          ~doc:
            "Sever cross-group links during a window; $(docv) is \
             FROM-UNTIL:G|G|... with comma-separated pids per group, e.g. \
             20-60:0,1|2,3. Repeatable.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one consensus instance in a simulated system")
    Term.(
      const run_consensus $ algo $ quorum_arg $ n_arg $ t_arg $ seed_arg
      $ drop $ dup $ reorder $ partition)

let experiments_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps (faster).")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"ID" ~doc:"Run a single experiment (e1..e14 | e16).")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Validate the paper's theorems (the E-table of DESIGN.md)")
    Term.(const run_experiments $ quick $ only $ seed_arg)

let check_cmd =
  let detector =
    Arg.(
      value & opt string "sigma_nu_plus"
      & info [ "detector" ] ~docv:"D"
          ~doc:"omega | sigma | sigma_nu | sigma_nu_plus | eventually_strong.")
  in
  let horizon =
    Arg.(
      value & opt int 300
      & info [ "horizon" ] ~docv:"H" ~doc:"Sampled history length.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Generate a failure-detector history and validate it")
    Term.(const run_check $ detector $ n_arg $ t_arg $ seed_arg $ horizon)

let ablation_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps (faster).")
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"The A_nuc mechanism-necessity study (distrust / awareness)")
    Term.(const run_ablation $ quick $ seed_arg)

let scenario_cmd =
  let scenario_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"contamination | separation.")
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a proof scenario from the paper")
    Term.(const run_scenario $ scenario_arg)

let mc_cmd =
  let algo =
    Arg.(
      value & opt string "anuc"
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"anuc | naive-sn | mr-majority | mr-sigma | ct.")
  in
  let n =
    Arg.(
      value & opt int 3
      & info [ "n" ] ~docv:"N" ~doc:"Number of processes (small: n <= 4).")
  in
  let t =
    Arg.(
      value & opt int 1
      & info [ "t" ] ~docv:"T"
          ~doc:
            "Maximum number of faulty processes; the last $(docv) pids are \
             the faulty set of the explored environment.")
  in
  let depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Exploration depth bound (default: a per-algorithm depth at \
             which the interesting behaviour is reachable).")
  in
  let family =
    Arg.(
      value & opt string "contamination"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Detector-menu family: the focused Section 6.3 'contamination' \
             sub-family, the same family over 'lossy' links (the network \
             may drop any deliverable message), or the 'full' class menu \
             (much larger state \
             space).")
  in
  let max_states =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-states" ] ~docv:"S"
          ~doc:"Abort (inconclusively) after exploring $(docv) states.")
  in
  let max_drops =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-drops" ] ~docv:"K"
          ~doc:
            "With --family lossy: bound the network to at most $(docv) \
             dropped messages per schedule (default: unlimited). The \
             exploration is then exhaustive for every schedule with at \
             most $(docv) losses — the loss-bounded analogue of --depth, \
             which keeps deep lossy explorations tractable.")
  in
  let delivery =
    Arg.(
      value & opt string "fifo"
      & info [ "delivery" ] ~docv:"MODEL"
          ~doc:
            "Channel model: 'fifo' (per-channel send order; exhaustive for \
             FIFO links) or 'any' (every per-channel reordering).")
  in
  let reduction =
    Arg.(
      value & opt string "sleep"
      & info [ "reduction" ] ~docv:"R"
          ~doc:
            "Partial-order reduction: 'dpor' (sleep sets refined by the \
             happens-before independence relation — processes racing on a \
             channel, or drops against their channel's consumers, wake \
             slept siblings back up as backtrack points), 'sleep' (same-pid \
             sleep sets only), or 'none'. All three are state-preserving: \
             verdict and distinct-state count are identical, only the \
             transitions taken differ.")
  in
  let json =
    Arg.(
      value
      & opt ~vopt:(Some "MC.json") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the run's statistics as a one-row b11_dpor document \
             fragment to $(docv) (the same row shape as bench --json; its \
             pass field records only that the verdict was conclusive, i.e. \
             not truncated).")
  in
  let corrupt =
    Arg.(
      value & flag
      & info [ "selftest-corrupt-cx" ]
          ~doc:
            "Deliberately corrupt a found counterexample's receives before \
             certification (selftest of the replay/history checks and the \
             nonzero exit path; a corrupted counterexample must be \
             rejected).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a versioned campaign snapshot (packed visited set, \
             frontier cursor, counters) to $(docv) at exploration-chunk \
             boundaries, roughly every --ckpt-every newly interned states; \
             a killed campaign resumed with --resume reproduces the \
             uninterrupted verdict and distinct-state count exactly.")
  in
  let ckpt_every =
    Arg.(
      value & opt int 50_000
      & info [ "ckpt-every" ] ~docv:"S"
          ~doc:
            "With --checkpoint: snapshot after at least $(docv) new \
             distinct states since the previous snapshot.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume a checkpointed campaign from $(docv). The file's \
             magic, schema version, payload digest, campaign fingerprint \
             and stored state hashes are all re-validated before any state \
             is trusted; a mismatch exits 1 with a typed error. \
             --max-states counts cumulatively across the resumed \
             segments.")
  in
  let spill_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:
            "Spill cold shards of the visited set to $(docv) at chunk \
             boundaries, keeping only hash prefilters in memory \
             (existing $(docv) required); shards reload transparently on \
             collision.")
  in
  let corrupt_ckpt =
    Arg.(
      value & flag
      & info [ "selftest-corrupt-checkpoint" ]
          ~doc:
            "With --resume: flip one byte of the checkpoint file (into \
             FILE.corrupt) and resume from the damaged copy — the digest \
             validation must reject it with a typed error and exit 1 \
             (negative-path selftest, like --selftest-corrupt-cx).")
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Exhaustively model-check an algorithm over every admissible \
          schedule of a small universe")
    Term.(
      const run_mc $ algo $ n $ t $ depth $ family $ quorum_arg
      $ max_states $ max_drops $ delivery $ jobs_arg $ reduction $ json
      $ corrupt $ checkpoint $ ckpt_every $ resume $ spill_dir
      $ corrupt_ckpt)

let fuzz_cmd =
  let algo =
    Arg.(
      value & opt string "naive-sn"
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"anuc | naive-sn | mr-majority | mr-sigma | ct.")
  in
  let n =
    Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")
  in
  let t =
    Arg.(
      value & opt int 2
      & info [ "t" ] ~docv:"T"
          ~doc:
            "Maximum number of faulty processes; the last $(docv) pids are \
             the faulty set.")
  in
  let runs =
    Arg.(
      value & opt int 10_000
      & info [ "runs" ] ~docv:"R"
          ~doc:"Sample at most $(docv) schedules (stops at first violation).")
  in
  let sampler =
    Arg.(
      value & opt string "uniform"
      & info [ "sampler" ] ~docv:"S"
          ~doc:
            "Schedule sampler: 'uniform' or 'pctD' (PCT with D-1 \
             priority-change points, e.g. pct3).")
  in
  let swarm =
    Arg.(
      value & flag
      & info [ "swarm" ]
          ~doc:
            "Resample menu family, loss budget, stabilization step and \
             sampler once per batch.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Report the raw violating schedule without delta-debugging.")
  in
  let delivery =
    Arg.(
      value & opt string "fifo"
      & info [ "delivery" ] ~docv:"MODEL"
          ~doc:
            "Channel model runs sample from: 'fifo' (channel heads \
             only; small branching factor, best find rate — default) \
             or 'any' (any pending message, the paper's set-shaped \
             buffer). The shrinker always works in the 'any' space: \
             its drain-skipping pass frees FIFO-found schedules from \
             channel-prefix draining.")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"K"
          ~doc:"Steps per sampled run (default 18*n).")
  in
  let max_drops =
    Arg.(
      value & opt int 1
      & info [ "max-drops" ] ~docv:"D"
          ~doc:
            "Loss budget per run when the menu family is lossy (swarm may \
             override per batch).")
  in
  let batch =
    Arg.(
      value & opt int 1000
      & info [ "batch" ] ~docv:"B"
          ~doc:"Runs per coverage batch (and per swarm draw).")
  in
  let family =
    Arg.(
      value & opt string "contamination"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Detector-menu family, as for mc: contamination | lossy | full \
             (ignored by the uniform algorithms, which have one menu).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the fuzz report as JSON to $(docv) (byte-deterministic \
             in --seed).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a versioned campaign snapshot (coverage sets, curve, \
             counters, batch cursor) to $(docv) at batch-chunk \
             boundaries; an interrupted campaign resumed with --resume \
             produces a byte-identical report to the straight-through \
             run, at any --jobs.")
  in
  let ckpt_every =
    Arg.(
      value & opt int 10
      & info [ "ckpt-every" ] ~docv:"B"
          ~doc:
            "With --checkpoint: snapshot after at least $(docv) batches \
             since the previous snapshot.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume a checkpointed fuzz campaign from $(docv); magic, \
             schema version, digest and campaign fingerprint are \
             validated before anything is trusted (mismatch exits 1).")
  in
  let max_batches =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-batches" ] ~docv:"B"
          ~doc:
            "Stop this segment after $(docv) batches (the deterministic \
             interruption hook for checkpoint testing; the partial \
             segment still checkpoints).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Randomly sample admissible schedules (PCT / uniform / swarm), \
          track coverage, and shrink+certify any violation found")
    Term.(
      const run_fuzz $ algo $ n $ t $ runs $ sampler $ swarm
      $ Term.app (const not) no_shrink
      $ seed_arg $ delivery $ max_steps $ max_drops $ batch $ family
      $ quorum_arg $ jobs_arg $ json $ checkpoint $ ckpt_every $ resume
      $ max_batches)

let serve_cmd =
  let clients =
    Arg.(
      value & opt int 50
      & info [ "clients" ] ~docv:"C"
          ~doc:"Closed-loop clients, homed round-robin on the replicas.")
  in
  let slots =
    Arg.(
      value & opt int 200
      & info [ "slots" ] ~docv:"S"
          ~doc:"Stop once every correct replica has decided $(docv) slots.")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"B"
          ~doc:"Commands packed per slot proposal (1-4).")
  in
  let window =
    Arg.(
      value & opt int 8
      & info [ "window" ] ~docv:"W"
          ~doc:"Per-replica in-flight command cap (the client window).")
  in
  let pipeline =
    Arg.(
      value & opt int 2
      & info [ "pipeline" ] ~docv:"P"
          ~doc:"Consensus instances kept open ahead of the first undecided \
                slot.")
  in
  let compaction =
    Arg.(
      value & opt int 128
      & info [ "compaction" ] ~docv:"K"
          ~doc:
            "Retention bound: applied-log slots kept before compaction, \
             and the instance-retirement horizon.")
  in
  let serve_n =
    Arg.(
      value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of replicas.")
  in
  let max_steps =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-steps" ] ~docv:"K" ~doc:"Step budget per run.")
  in
  let serve_jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"J"
          ~doc:
            "With $(docv) > 1, additionally run the workload on the \
             concurrent executor with that many domains (the simulator \
             reference always runs).")
  in
  let transport =
    Arg.(
      value
      & opt
          (enum [ ("mutex", Sim.Executor.Mutex); ("ring", Sim.Executor.Ring) ])
          Sim.Executor.Mutex
      & info [ "transport" ] ~docv:"T"
          ~doc:
            "Executor transport: $(b,mutex) (a lock per mailbox — the \
             differential oracle) or $(b,ring) (lock-free bounded MPSC \
             rings with an overflow side-queue). Any value other than \
             $(b,mutex) forces an executor run even at --jobs 1.")
  in
  let reads =
    Arg.(
      value & opt int 0
      & info [ "reads" ] ~docv:"R"
          ~doc:
            "Serve $(docv) read-only queries alongside the write \
             workload, paced by decided-slot progress (forces an \
             executor run).")
  in
  let read_mode =
    Arg.(
      value
      & opt
          (enum
             [
               ("log", Load.Read_log);
               ("snapshot", Load.Read_snapshot);
               ("snap", Load.Read_snapshot);
             ])
          Load.Read_log
      & info [ "read-mode" ] ~docv:"M"
          ~doc:
            "$(b,log) recomputes the full-log digest from live replica \
             state per read; $(b,snapshot) reads the newest published \
             snapshot — one atomic load, staleness bounded by \
             --publish-every - 1 decided slots (the run fails if the \
             bound is ever exceeded).")
  in
  let publish_every =
    Arg.(
      value & opt int 8
      & info [ "publish-every" ] ~docv:"K"
          ~doc:
            "Republish the read snapshot every $(docv) decided slots \
             (snapshot mode).")
  in
  let json =
    Arg.(
      value
      & opt ~vopt:(Some "SERVE.json") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the B10-shaped rows (plus B14-shaped read-path rows \
             when --reads > 0) as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a closed-loop client workload over the replicated log \
          (state-machine replication on nonuniform consensus)")
    Term.(
      const run_serve $ serve_n $ clients $ slots $ batch $ window $ pipeline
      $ compaction $ serve_jobs $ seed_arg $ transport $ reads $ read_mode
      $ publish_every $ max_steps $ json)

let main_cmd =
  Cmd.group
    (Cmd.info "nuc_cli" ~version:"1.0.0"
       ~doc:
         "The weakest failure detector to solve nonuniform consensus — \
          executable reproduction")
    [
      run_cmd;
      experiments_cmd;
      check_cmd;
      scenario_cmd;
      ablation_cmd;
      mc_cmd;
      fuzz_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
