(* nuc_cli — command-line driver for the nonuniform-consensus
   reproduction.

   Subcommands:
     run          one consensus run in a simulated system
     experiments  the E-table of theorem validations (see DESIGN.md)
     check        generate an oracle history and validate it
     scenario     the proof scenarios (see SCENARIO in its --help)
     ablation     the A_nuc mechanism-necessity study
     mc           exhaustive bounded model checking (lib/mc)
     fuzz         randomized schedule exploration (lib/explore)
     serve        closed-loop replicated-log serving (lib/smr Load driver)

   mc and fuzz read one table of --algo targets ([targets]): each
   entry is the automaton, its agreement flavour, mc's default depth,
   its menus and two flag guards, and one [run_mc] / [run_fuzz]
   applies the engine to it.

   Exit codes:
     0    verdict established
     1    no trustworthy verdict (mc truncation, an uncertified
          counterexample, a failed experiment, serve gate or detector
          check), or flags that do not fit together (t >= n, a
          --partition pid >= n, a quorum family that does not tile n,
          --quorum on a uniform algorithm)
     2    a serve config refused by Load.check
     124  a value the parser refuses: an unknown name, a count out of
          range, a missing directory

   Every subcommand that consumes randomness takes --seed (default 0,
   deterministic); mc and scenario are fully deterministic, and fuzz
   is deterministic in --seed. *)

open Procset
open Cmdliner

let pf = Format.printf

(* Prints "error: MSG" and exits 1: flags that parse but do not fit. *)
let fail fmt =
  Format.kasprintf
    (fun m ->
      pf "error: %s@." m;
      exit 1)
    fmt

let write_json path doc =
  Report.to_file path doc;
  pf "wrote %s@." path

(* ---------------------------------------------------------------- *)
(* converters: a value they refuse exits 124                         *)
(* ---------------------------------------------------------------- *)

(* One of a closed set of named values, matched case-insensitively.
   A default is printed by finding it with physical equality, so the
   values may hold modules and closures. *)
let choice choices =
  let names = Arg.enum choices in
  Arg.conv
    ( (fun s -> Arg.conv_parser names (String.lowercase_ascii s)),
      fun ppf v ->
        Format.pp_print_string ppf
          (fst (List.find (fun (_, v') -> v' == v) choices)) )

let alts choices = String.concat " | " (List.map fst choices)

(* An integer count in [min, max]. *)
let count ?(max = max_int) min =
  let range =
    if max = max_int then Printf.sprintf ">= %d" min
    else Printf.sprintf "in [%d, %d]" min max
  in
  let parse s =
    match int_of_string_opt s with
    | Some k when min <= k && k <= max -> Ok k
    | _ ->
      Error
        (`Msg
           (Printf.sprintf "invalid value '%s', expected an integer %s" s range))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Process counts: [Pset] holds at most [Pset.max_size] pids, and
   every environment needs two processes. *)
let n_conv = count ~max:Pset.max_size 2

(* A file to write, refused before the run rather than after it
   unless its directory exists. *)
let out_file =
  let parse s =
    let dir = Filename.dirname s in
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      Error (`Msg (Printf.sprintf "no '%s' directory" dir))
    else if Sys.file_exists s && Sys.is_directory s then
      Error (`Msg (Printf.sprintf "'%s' is a directory" s))
    else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

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
    with Failure _ | Invalid_argument _ -> Error err
  in
  Arg.conv (parse, Sim.Faults.pp_partition)

let quorum_conv =
  Arg.conv
    ( (fun s ->
        Result.map_error (fun e -> `Msg e) (Quorum_family.of_string s)),
      Quorum_family.pp )

(* 'uniform', 'pct' (PCT depth 3) or 'pctD' for D >= 1. *)
let sampler_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "uniform" -> Ok Explore.Uniform
    | "pct" -> Ok (Explore.Pct 3)
    | s -> (
      match Scanf.sscanf_opt s "pct%u%!" Fun.id with
      | Some d when d >= 1 -> Ok (Explore.Pct d)
      | _ ->
        Error (`Msg (Printf.sprintf "unknown sampler %S (uniform | pct | pctD)" s)))
  in
  Arg.conv (parse, Explore.pp_sampler)

(* Surfaces Quorum_family's typed errors (bad shape for this n, or no
   quorum at all) instead of letting them escape as exceptions. *)
let require_family_fits fam ~n =
  match Quorum_family.validate fam ~n ~live:(Pset.full ~n) with
  | Ok () -> ()
  | Error e -> fail "%s" (Quorum_family.error_to_string e)

(* ---------------------------------------------------------------- *)
(* run                                                               *)
(* ---------------------------------------------------------------- *)

let algos =
  Experiments.
    [
      ("a_nuc", Anuc);
      ("mr_majority", Mr_majority);
      ("mr_sigma", Mr_sigma);
      ("stack", Stack);
      ("ct", Ct);
    ]

let run_consensus algo quorum n t seed drop dup reorder partitions =
  if t >= n then fail "need t < n";
  (* A group pid past n names no process; the window would silently
     cut off every pid it leaves ungrouped. *)
  List.iter
    (fun (w : Sim.Faults.partition) ->
      List.iter
        (Pset.iter (fun p ->
             if p >= n then
               fail "partition pid %d is out of range for n = %d" p n))
        w.groups)
    partitions;
  if quorum = None
     && (algo = Experiments.Mr_majority || algo = Experiments.Ct)
     && 2 * t >= n
  then fail "this algorithm requires t < n/2 (got n=%d t=%d)" n t;
  let faults =
    try Sim.Faults.make ~drop ~dup ~reorder ~partitions ~seed ()
    with Invalid_argument m -> fail "%s" m
  in
  if not (Sim.Faults.is_none faults) then
    pf "fault spec: %a@." Sim.Faults.pp faults;
  let algo =
    Option.fold quorum ~none:algo ~some:(fun fam ->
        require_family_fits fam ~n;
        let res = Quorum_family.resilience fam ~n in
        if res < t then
          pf "note: %s at n=%d has structural resilience %d < t=%d — a \
              crash pattern can leave no live quorum, and such runs \
              (honestly) never decide@."
            (Quorum_family.name fam) n res t;
        Experiments.Family fam)
  in
  let r = Experiments.latency ~faults algo ~n ~t ~seeds:[ seed ] in
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
    | Some row -> [ row ~quick ~seed_base:seed ]
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

(* Each detector's printed name, and its oracle and checker for a
   pattern at a stabilization time. *)
let detectors =
  let open Fd in
  [
    ( "omega",
      ( "Omega",
        fun ~seed ~stab p ->
          (Oracle.omega ~seed ~stab_time:stab p, Check.omega ~max_stab:stab p) ) );
    ( "sigma",
      ( "Sigma",
        fun ~seed ~stab p ->
          (Oracle.sigma ~seed ~stab_time:stab p, Check.sigma ~max_stab:stab p) ) );
    ( "sigma_nu",
      ( "Sigma-nu",
        fun ~seed ~stab p ->
          ( Oracle.sigma_nu ~seed ~stab_time:stab p,
            Check.sigma_nu ~max_stab:stab p ) ) );
    ( "sigma_nu_plus",
      ( "Sigma-nu+",
        fun ~seed ~stab p ->
          ( Oracle.sigma_nu_plus ~seed ~stab_time:stab p,
            Check.sigma_nu_plus ~max_stab:stab p ) ) );
    ( "eventually_strong",
      ( "<>S",
        fun ~seed ~stab p ->
          ( Oracle.eventually_strong ~seed ~stab_time:stab p,
            Check.eventually_strong ~max_stab:stab p ) ) );
  ]

let run_check (name, detector) n t seed horizon =
  if t >= n then fail "need t < n";
  let env = Sim.Env.make ~n ~max_faulty:t in
  let rng = Random.State.make [| seed |] in
  let pattern = Sim.Env.random_pattern rng ~crash_window:(horizon / 3) env in
  pf "pattern: %a@." Sim.Failure_pattern.pp pattern;
  let oracle, checker = detector ~seed ~stab:(2 * horizon / 3) pattern in
  match checker (Fd.Oracle.history ~horizon ~n oracle) with
  | Ok () -> pf "%s: history of %d samples conforms@." name ((horizon + 1) * n)
  | Error v ->
    pf "%s: VIOLATION %a@." name Fd.Check.pp_violation v;
    exit 1

(* ---------------------------------------------------------------- *)
(* scenario                                                          *)
(* ---------------------------------------------------------------- *)

let scenarios =
  let report o =
    List.iter (fun line -> pf "%s@." line) o.Core.Scenario.trace;
    pf "agreement violated: %b; adversary history legal: %b@."
      o.Core.Scenario.agreement_violated
      (Result.is_ok o.Core.Scenario.history_valid)
  in
  [
    ("contamination", fun () -> report (Core.Scenario.contamination_naive_mr ()));
    ( "contamination_unsafe_anuc",
      fun () -> report (Core.Scenario.contamination_anuc_unsafe ()) );
    ( "separation",
      fun () ->
        let module Atk = Core.Separation.Attack (Core.Separation.Sigma_scratch) in
        List.iter
          (fun (n, t) ->
            pf "--- n=%d t=%d ---@." n t;
            match Atk.run ~n ~t ~inputs:(fun _ -> t) () with
            | Ok o -> pf "%a@." Atk.pp_outcome o
            | Error e -> pf "%s@." e)
          [ (4, 1); (4, 2); (6, 3) ] );
  ]

(* ---------------------------------------------------------------- *)
(* mc and fuzz: one table of --algo targets                          *)
(* ---------------------------------------------------------------- *)

type family = [ `Contamination | `Lossy | `Full ]

let families : (string * family) list =
  [ ("contamination", `Contamination); ("lossy", `Lossy); ("full", `Full) ]

type target = {
  name : string;
  automaton : (module Consensus.Spec.S);
  flavour : Consensus.Spec.flavour;
  mc_depth : int;
      (* mc's default --depth: where the interesting behaviour is
         reachable *)
  menu : Quorum_family.t option -> n:int -> faulty:Pset.t -> family -> Mc.Menu.t;
  swarm : family list;  (* the families fuzz --swarm adds to the rotation *)
  quorum : bool;  (* --quorum applies *)
  majority : bool;  (* t < n/2 required *)
}

let targets =
  (* A_nuc over Sigma-nu+ menus ([plus]) and the naive substitution
     over Sigma-nu menus: --family picks the menu, --quorum shapes it. *)
  let sigma_nu name automaton ~plus mc_depth =
    {
      name;
      automaton;
      flavour = Consensus.Spec.Nonuniform;
      mc_depth;
      menu =
        (fun quorum ~n ~faulty -> function
          | `Contamination -> Mc.Menu.contamination ~plus ?quorum ~n ~faulty ()
          | `Lossy -> Mc.Menu.lossy ~plus ?quorum ~n ~faulty ()
          | `Full when plus -> Mc.Menu.omega_sigma_nu_plus ~n ~faulty
          | `Full -> Mc.Menu.omega_sigma_nu ~n ~faulty);
      swarm = [ `Lossy; `Full ];
      quorum = true;
      majority = false;
    }
  in
  (* The uniform baselines: one class menu whatever the family. *)
  let uniform name automaton menu mc_depth ~majority =
    {
      name;
      automaton;
      flavour = Consensus.Spec.Uniform;
      mc_depth;
      menu = (fun _ ~n ~faulty _ -> menu ~n ~faulty);
      swarm = [];
      quorum = false;
      majority;
    }
  in
  List.map
    (fun t -> (t.name, t))
    [
      sigma_nu "anuc" (module Core.Anuc) ~plus:true 11;
      sigma_nu "naive-sn" (module Consensus.Mr.With_quorum) ~plus:false 34;
      uniform "mr-sigma" (module Consensus.Mr.With_quorum) Mc.Menu.omega_sigma 10
        ~majority:false;
      uniform "mr-majority" (module Consensus.Mr.Majority) Mc.Menu.leader_only
        11 ~majority:true;
      uniform "ct" (module Consensus.Ct) Mc.Menu.suspects 13 ~majority:true;
    ]

(* The flag-fit checks mc and fuzz share; a refusal exits 1. *)
let check_fit target ~n ~t ~family ~quorum =
  if t >= n || t < 1 then fail "need 1 <= t < n";
  Option.iter
    (fun fam ->
      require_family_fits fam ~n;
      if family = `Full then
        fail
          "--quorum shapes the contamination/lossy menus only (the 'full' \
           class menus quantify over every legal value)")
    quorum;
  if quorum <> None && not target.quorum then
    fail "--quorum only applies to the Sigma-nu algorithms (%s)"
      (alts (List.filter (fun (_, e) -> e.quorum) targets));
  if target.majority && 2 * t >= n then
    fail "this algorithm requires t < n/2 (got n=%d t=%d)" n t

type universe = {
  pattern : Sim.Failure_pattern.t;
  proposals : Pid.t -> Consensus.Value.t;
  menu : Mc.Menu.t;
  swarm_menus : Mc.Menu.t list;
  scope : Pset.t;  (* whose decisions end a run *)
}

(* The universe mc and fuzz explore ([Experiments.universe]: the last
   [t] pids faulty, crashing one step past [bound], so the detector
   clauses treat them as faulty while every schedule up to the bound
   may still step them), with every menu checked admissible. *)
let universe (target : target) ~n ~t ~bound ~family ~quorum ~swarm =
  let faulty, pattern, proposals = Experiments.universe ~n ~t ~bound in
  let menu_of = target.menu quorum ~n ~faulty in
  let menu = menu_of family in
  let swarm_menus = if swarm then List.map menu_of target.swarm else [] in
  List.iter
    (fun (m : Mc.Menu.t) ->
      match Mc.Menu.validate ~pattern m with
      | Ok () -> pf "menu %s: admissible@." m.name
      | Error e ->
        pf "menu %s: INADMISSIBLE (%s)@." m.name e;
        exit 1)
    (menu :: swarm_menus);
  (* The stop scope must match the agreement flavour: uniform
     agreement/validity constrain faulty processes' decisions too
     (they keep stepping until bound + 1), so for uniform checks a
     state only counts as a goal once *every* process decided —
     stopping when the correct ones decided would prune continuations
     in which a faulty process decides a conflicting or unproposed
     value. *)
  let scope =
    match target.flavour with
    | Consensus.Spec.Uniform -> Pset.full ~n
    | Consensus.Spec.Nonuniform -> Sim.Failure_pattern.correct pattern
  in
  { pattern; proposals; menu; swarm_menus; scope }

let resumable f =
  try f ()
  with Mc.Resume_rejected e ->
    pf "checkpoint rejected: %s@." (Mc.Codec.error_to_string e);
    exit 1

(* --selftest-corrupt-checkpoint: flip one byte of the --resume file
   and resume from the damaged copy — the digest check must reject it
   with a typed error and a nonzero exit, never a Marshal crash. *)
let corrupt_checkpoint_copy path =
  let b =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error m -> fail "%s" m
  in
  let len = String.length b in
  if len = 0 then fail "checkpoint %s is empty" path;
  let b = Bytes.of_string b in
  Bytes.set b (len - 1) (Char.chr (Char.code (Bytes.get b (len - 1)) lxor 1));
  let path' = path ^ ".corrupt" in
  Out_channel.with_open_bin path' (fun oc -> Out_channel.output_bytes oc b);
  pf "selftest: flipped last byte of %s into %s@." path path';
  path'

(* [corrupt] (--selftest-corrupt-cx) deliberately damages a found
   counterexample before certification — the negative-path selftest
   for the certification machinery and its nonzero exit code. *)
let run_mc target n t depth family quorum max_states max_drops delivery
    jobs reduction json corrupt checkpoint resume spill_dir corrupt_ckpt =
  check_fit target ~n ~t ~family ~quorum;
  let resume =
    match (resume, corrupt_ckpt) with
    | Some path, true -> Some (corrupt_checkpoint_copy path)
    | None, true -> fail "--selftest-corrupt-checkpoint requires --resume"
    | r, false -> r
  in
  let depth = Option.value depth ~default:target.mc_depth in
  let module A = (val target.automaton) in
  let module M = Mc.Make (A) in
  let u = universe target ~n ~t ~bound:depth ~family ~quorum ~swarm:false in
  let r =
    resumable (fun () ->
        M.run ~reduction ~n ~menu:u.menu ~depth ~inputs:u.proposals
          ~props:
            (M.consensus_props ~decision:A.decision ~proposals:u.proposals
               ~flavour:target.flavour ~pattern:u.pattern)
          ~stop:(M.decided_stop ~decision:A.decision ~scope:u.scope)
          ~max_states ?max_drops ~delivery ~jobs
          ?checkpoint ?resume ?spill_dir ())
  in
  pf "%a@." Mc.pp_stats r.M.stats;
  Option.iter
    (fun path ->
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
        Experiments.b11_row_of_stats ~algorithm:target.name ~reduction ~depth
          ~outcome
          ~pass:(not r.M.stats.Mc.truncated)
          r.M.stats
      in
      write_json path
        (Report.Obj
           [ ("b11_dpor", Report.Table.rows Experiments.b11_spec [ row ]) ]))
    json;
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
      match M.replay_counterexample ~n ~inputs:u.proposals cx with
      | Ok _ ->
        pf "replay: accepted by Runner.replay@.";
        true
      | Error e ->
        pf "replay: REJECTED (%s)@." e;
        false
    in
    let ok_hist =
      match
        Mc.history_legal ~kind:u.menu.Mc.Menu.kind ~pattern:u.pattern
          cx.M.cx_samples
      with
      | Ok () ->
        pf "detector history: perpetual clauses hold@.";
        true
      | Error e ->
        pf "detector history: ILLEGAL (%s)@." e;
        false
    in
    if not (ok_replay && ok_hist) then exit 1

(* Samples schedules of the same universe instead of enumerating them. *)
let run_fuzz target n t runs sampler swarm shrink seed delivery max_steps
    max_drops batch family quorum jobs json checkpoint resume max_batches =
  check_fit target ~n ~t ~family ~quorum;
  let max_steps = Option.value max_steps ~default:(18 * n) in
  let module A = (val target.automaton) in
  let module E = Explore.Make (A) in
  let u = universe target ~n ~t ~bound:max_steps ~family ~quorum ~swarm in
  let swarm =
    if not swarm then None
    else
      Some
        {
          Explore.sw_menus = u.menu :: u.swarm_menus;
          sw_budgets = [ 0; 1; 2 ];
          sw_stabs = [ max_steps / 3; 2 * max_steps / 3; max_steps ];
          sw_samplers = [ Explore.Uniform; Pct 2; Pct 3; Pct 4 ];
        }
  in
  let report =
    resumable (fun () ->
        E.fuzz ~algo:target.name ~sampler ?swarm ~batch_size:batch ~delivery
          ~max_steps ~max_drops ~shrink ~jobs
          ?checkpoint ?resume ?max_batches
          ~stop:(E.M.decided_stop ~decision:A.decision ~scope:u.scope)
          ~decided:(fun st -> A.decision st <> None)
          ~seed ~runs ~n ~menu:u.menu ~pattern:u.pattern ~inputs:u.proposals
          ~props:
            (E.M.consensus_props ~decision:A.decision ~proposals:u.proposals
               ~flavour:target.flavour ~pattern:u.pattern)
          ())
  in
  pf "%a@." E.pp_report report;
  Option.iter (fun path -> write_json path (E.json_of_report report)) json;
  match report.E.violation with
  | Some v when not (v.E.v_replay_ok && v.E.v_history_ok) ->
    pf "violation NOT CERTIFIED — failing@.";
    exit 1
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* serve                                                             *)
(* ---------------------------------------------------------------- *)

(* Closed-loop clients over the replicated log: always one run on the
   deterministic simulator (the replayable reference), plus one on the
   concurrent executor when --jobs > 1 or a read workload is
   requested. Exits 1 if any run shows divergent live-replica logs,
   misses its slot target, or serves a snapshot read staler than the
   declared bound — the same gates the serve-smoke CI job relies
   on. *)
let run_serve n clients slots batch window pipeline compaction jobs seed
    reads read_mode publish_every max_steps json =
  (* [Load.check] rejects clients < 1 below *)
  let commands_per_client =
    max 2 (((2 * batch * slots) + clients - 1) / max 1 clients)
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
      reads;
      read_mode;
      publish_every;
    }
  in
  (match Load.check cfg with
  | Ok () -> ()
  | Error msg ->
    pf "serve: %s@." msg;
    exit 2);
  pf "serve: n=%d clients=%d slots=%d batch=%d window=%d pipeline=%d \
      compaction=%d seed=%d reads=%d read-mode=%s publish-every=%d@."
    n clients slots batch window pipeline compaction seed reads
    (Load.read_mode_name read_mode)
    publish_every;
  let b10 = Experiments.b10_spec and b14 = Experiments.b14_spec in
  pf "%s@." (Report.Table.header b10);
  let sim_out = Load.run_sim cfg in
  let rows = ref [ Experiments.b10_row ~substrate:"sim" cfg sim_out ] in
  pf "%a@." (Report.Table.pp_row b10) (List.hd !rows);
  let outcomes = ref [ sim_out ] in
  let b14_rows = ref [] in
  if jobs > 1 || reads > 0 then begin
    let exec_out = Load.run_exec ~jobs cfg in
    let row =
      Experiments.b10_row ~substrate:(Printf.sprintf "exec(j=%d)" jobs) cfg
        exec_out
    in
    pf "%a@." (Report.Table.pp_row b10) row;
    rows := !rows @ [ row ];
    outcomes := !outcomes @ [ exec_out ];
    if reads > 0 then b14_rows := [ Experiments.b14_row ~jobs cfg exec_out ]
  end;
  if !b14_rows <> [] then Report.Table.print b14 Format.std_formatter !b14_rows;
  Option.iter
    (fun path ->
      write_json path
        (Report.Obj
           (("b10_serve", Report.Table.rows b10 !rows)
           ::
           (if !b14_rows = [] then []
            else [ ("b14_ring", Report.Table.rows b14 !b14_rows) ]))))
    json;
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

let n_arg =
  Arg.(value & opt n_conv 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let t_arg =
  Arg.(
    value & opt (count 0) 2
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
    value & opt (count 1) 1
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

(* mc's and fuzz's --algo, read from [targets]. *)
let target_arg default =
  Arg.(
    value
    & opt (choice targets) (List.assoc default targets)
    & info [ "algo" ] ~docv:"ALGO" ~doc:(alts targets ^ "."))

let family_arg doc =
  Arg.(
    value & opt (choice families) `Contamination
    & info [ "family" ] ~docv:"FAMILY" ~doc)

let delivery_arg doc =
  Arg.(
    value
    & opt (choice [ ("fifo", `Fifo); ("any", `Any) ]) `Fifo
    & info [ "delivery" ] ~docv:"MODEL" ~doc)

(* --checkpoint FILE and its --ckpt-every interval, paired as the
   engines take them. *)
let checkpoint_args ~doc ~every ~every_docv ~every_doc =
  Term.(
    const (fun path every -> Option.map (fun p -> (p, every)) path)
    $ Arg.(
        value & opt (some out_file) None
        & info [ "checkpoint" ] ~docv:"FILE" ~doc)
    $ Arg.(
        value & opt (count 1) every
        & info [ "ckpt-every" ] ~docv:every_docv ~doc:every_doc))

let resume_arg doc =
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let run_cmd =
  let algo =
    Arg.(
      value
      & opt (choice algos) Experiments.Anuc
      & info [ "algo" ] ~docv:"ALGO" ~doc:("Algorithm: " ^ alts algos ^ "."))
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

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps (faster).")

let experiments_cmd =
  let only =
    Arg.(
      value
      & opt (some (choice Experiments.e_rows)) None
      & info [ "only" ] ~docv:"ID"
          ~doc:("Run a single experiment: " ^ alts Experiments.e_rows ^ "."))
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Validate the paper's theorems (the E-table of DESIGN.md)")
    Term.(const run_experiments $ quick_arg $ only $ seed_arg)

let check_cmd =
  let detector =
    Arg.(
      value
      & opt (choice detectors) (List.assoc "sigma_nu_plus" detectors)
      & info [ "detector" ] ~docv:"D" ~doc:(alts detectors ^ "."))
  in
  let horizon =
    Arg.(
      value & opt (count 0) 300
      & info [ "horizon" ] ~docv:"H" ~doc:"Sampled history length.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Generate a failure-detector history and validate it")
    Term.(const run_check $ detector $ n_arg $ t_arg $ seed_arg $ horizon)

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"The A_nuc mechanism-necessity study (distrust / awareness)")
    Term.(const run_ablation $ quick_arg $ seed_arg)

let scenario_cmd =
  let scenario_arg =
    Arg.(
      required
      & pos 0 (some (choice scenarios)) None
      & info [] ~docv:"SCENARIO" ~doc:(alts scenarios ^ "."))
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a proof scenario from the paper")
    Term.(const (fun run -> run ()) $ scenario_arg)

let mc_cmd =
  let n =
    Arg.(
      value & opt n_conv 3
      & info [ "n" ] ~docv:"N" ~doc:"Number of processes (small: n <= 4).")
  in
  let t =
    Arg.(
      value & opt (count 0) 1
      & info [ "t" ] ~docv:"T"
          ~doc:
            "Maximum number of faulty processes; the last $(docv) pids are \
             the faulty set of the explored environment.")
  in
  let depth =
    Arg.(
      value
      & opt (some (count 0)) None
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Exploration depth bound (default: a per-algorithm depth at \
             which the interesting behaviour is reachable).")
  in
  let family =
    family_arg
      "Detector-menu family: the focused Section 6.3 'contamination' \
       sub-family, the same family over 'lossy' links (the network may drop \
       any deliverable message), or the 'full' class menu (much larger \
       state space)."
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
      & opt (some (count 0)) None
      & info [ "max-drops" ] ~docv:"K"
          ~doc:
            "With --family lossy: bound the network to at most $(docv) \
             dropped messages per schedule (default: unlimited). The \
             exploration is then exhaustive for every schedule with at \
             most $(docv) losses — the loss-bounded analogue of --depth, \
             which keeps deep lossy explorations tractable.")
  in
  let delivery =
    delivery_arg
      "Channel model: 'fifo' (per-channel send order; exhaustive for FIFO \
       links) or 'any' (every per-channel reordering)."
  in
  let reduction =
    Arg.(
      value
      & opt
          (choice
             [ ("dpor", Mc.Dpor); ("sleep", Mc.Sleep_sets); ("none", Mc.No_reduction) ])
          Mc.Sleep_sets
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
      & opt ~vopt:(Some "MC.json") (some out_file) None
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
    checkpoint_args
      ~doc:
        "Write a versioned campaign snapshot (packed visited set, frontier \
         cursor, counters) to $(docv) at exploration-chunk boundaries, \
         roughly every --ckpt-every newly interned states; a killed campaign \
         resumed with --resume reproduces the uninterrupted verdict and \
         distinct-state count exactly."
      ~every:50_000 ~every_docv:"S"
      ~every_doc:
        "With --checkpoint: snapshot after at least $(docv) new distinct \
         states since the previous snapshot."
  in
  let resume =
    resume_arg
      "Resume a checkpointed campaign from $(docv). The file's magic, schema \
       version, payload digest, campaign fingerprint and stored state hashes \
       are all re-validated before any state is trusted; a mismatch exits 1 \
       with a typed error. --max-states counts cumulatively across the \
       resumed segments."
  in
  let spill_dir =
    Arg.(
      value
      & opt (some dir) None
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
      const run_mc $ target_arg "anuc" $ n $ t $ depth $ family $ quorum_arg
      $ max_states $ max_drops $ delivery $ jobs_arg $ reduction $ json
      $ corrupt $ checkpoint $ resume $ spill_dir $ corrupt_ckpt)

let fuzz_cmd =
  let t =
    Arg.(
      value & opt (count 0) 2
      & info [ "t" ] ~docv:"T"
          ~doc:
            "Maximum number of faulty processes; the last $(docv) pids are \
             the faulty set.")
  in
  let runs =
    Arg.(
      value & opt (count 1) 10_000
      & info [ "runs" ] ~docv:"R"
          ~doc:"Sample at most $(docv) schedules (stops at first violation).")
  in
  let sampler =
    Arg.(
      value & opt sampler_conv Explore.Uniform
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
    delivery_arg
      "Channel model runs sample from: 'fifo' (channel heads only; small \
       branching factor, best find rate — default) or 'any' (any pending \
       message, the paper's set-shaped buffer). The shrinker always works in \
       the 'any' space: its drain-skipping pass frees FIFO-found schedules \
       from channel-prefix draining."
  in
  let max_steps =
    Arg.(
      value
      & opt (some (count 1)) None
      & info [ "max-steps" ] ~docv:"K"
          ~doc:"Steps per sampled run (default 18*n).")
  in
  let max_drops =
    Arg.(
      value & opt (count 0) 1
      & info [ "max-drops" ] ~docv:"D"
          ~doc:
            "Loss budget per run when the menu family is lossy (swarm may \
             override per batch).")
  in
  let batch =
    Arg.(
      value & opt (count 1) 1000
      & info [ "batch" ] ~docv:"B"
          ~doc:"Runs per coverage batch (and per swarm draw).")
  in
  let family =
    family_arg
      "Detector-menu family, as for mc: contamination | lossy | full (ignored \
       by the uniform algorithms, which have one menu)."
  in
  let json =
    Arg.(
      value
      & opt (some out_file) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the fuzz report as JSON to $(docv) (byte-deterministic \
             in --seed).")
  in
  let checkpoint =
    checkpoint_args
      ~doc:
        "Write a versioned campaign snapshot (coverage sets, curve, counters, \
         batch cursor) to $(docv) at batch-chunk boundaries; an interrupted \
         campaign resumed with --resume produces a byte-identical report to \
         the straight-through run, at any --jobs."
      ~every:10 ~every_docv:"B"
      ~every_doc:
        "With --checkpoint: snapshot after at least $(docv) batches since the \
         previous snapshot."
  in
  let resume =
    resume_arg
      "Resume a checkpointed fuzz campaign from $(docv); magic, schema \
       version, digest and campaign fingerprint are validated before \
       anything is trusted (mismatch exits 1)."
  in
  let max_batches =
    Arg.(
      value
      & opt (some (count 1)) None
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
      const run_fuzz $ target_arg "naive-sn" $ n_arg $ t $ runs $ sampler
      $ swarm
      $ Term.app (const not) no_shrink
      $ seed_arg $ delivery $ max_steps $ max_drops $ batch $ family
      $ quorum_arg $ jobs_arg $ json $ checkpoint $ resume $ max_batches)

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
             and the fallback instance-retirement horizon.")
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
            "$(b,log) reads the live replica's running full-log digest \
             and is never stale; $(b,snapshot) reads the newest \
             published snapshot, an immutable view any domain can read, \
             with staleness bounded by --publish-every - 1 decided slots \
             (the run fails if the bound is ever exceeded). Both cost \
             O(1) per read.")
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
      & opt ~vopt:(Some "SERVE.json") (some out_file) None
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
      $ compaction $ serve_jobs $ seed_arg $ reads $ read_mode
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
