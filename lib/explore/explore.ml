(* Randomized schedule exploration over [Mc.Make.Space]. See
   explore.mli and DESIGN.md §5c for the sampler math (PCT detection
   bound, split-seed determinism) and the shrink-certification
   argument. *)

open Procset

type sampler = Uniform | Pct of int

let sampler_name = function
  | Uniform -> "uniform"
  | Pct d -> Printf.sprintf "pct%d" d

let pp_sampler fmt s = Format.pp_print_string fmt (sampler_name s)

type swarm = {
  sw_menus : Mc.Menu.t list;
  sw_budgets : int list;
  sw_stabs : int list;
  sw_samplers : sampler list;
}

type batch_point = {
  bp_batch : int;
  bp_runs : int;
  bp_menu : string;
  bp_sampler : string;
  bp_budget : int;
  bp_stab : int;
  bp_states : int;
  bp_new_states : int;
  bp_new_depths : int;
  bp_new_shapes : int;
  bp_new_sigs : int;
  bp_new_traces : int;
}

type totals = {
  distinct_states : int;
  decision_depths : int;
  quorum_shapes : int;
  fault_signatures : int;
  canonical_traces : int;
}

(* Seed-stream salts: the root seed is combined with one of these and
   the batch/run indices, so the batch draw, the run streams and any
   future stream family never collide. *)
let salt_batch = 0x5347 (* "SG" — swarm generation *)

let salt_run = 0x52 (* "R" *)

(* After the stabilization step only each process's first menu value
   remains on offer — the detector has converged; network moves are
   unaffected. A menu cut to the values equal to its first offers
   exactly the moves whose value equals it, repeats included. *)
let stable_menus menus =
  Array.map
    (function [] -> [] | v :: _ as l -> List.filter (Sim.Fd_value.equal v) l)
    menus

(* Coverage keys are already deep hashes; [Key_set] stores them with
   identity hashing and a single probe per insertion attempt. *)
module Kset = Mc.Intern.Key_set

module Make (A : Sim.Automaton.S) = struct
  module M = Mc.Make (A)
  module S = M.Space

  type violation = {
    v_run : int;
    v_batch : int;
    v_property : string;
    v_detail : string;
    v_menu : string;
    v_sampler : string;
    v_budget : int;
    v_stab : int;
    v_moves : M.move list;
    v_shrunk : M.move list;
    v_candidates : int;
    v_cx : M.counterexample;
    v_replay_ok : bool;
    v_history_ok : bool;
  }

  type report = {
    algorithm : string;
    seed : int;
    sampler : string;
    swarm : bool;
    runs : int;
    max_steps : int;
    steps_total : int;
    decided_runs : int;
    quiesced_runs : int;
    curve : batch_point list;
    totals : totals;
    violation : violation option;
    wall_seconds : float;
  }

  (* ------------------------------------------------------------------ *)
  (* Schedule re-execution                                              *)
  (* ------------------------------------------------------------------ *)

  let check_props props getter =
    let rec go = function
      | [] -> None
      | (p : M.property) :: rest -> (
        match p.prop_check getter with
        | Ok () -> go rest
        | Error detail -> Some (p.prop_name, detail))
    in
    go props

  let take k l = List.filteri (fun i _ -> i < k) l

  (* A schedule cut at its first violating state, with [p_cfgs.(j)]
     the configuration after its first [j] moves for every proper
     prefix — each applicable and violation-free, so a candidate that
     starts with one replays from there. [root] is the empty schedule:
     only the initial configuration. *)
  type prefix = { p_moves : M.move list; p_cfgs : S.config array }

  let root ~n ~inputs = { p_moves = []; p_cfgs = [| S.initial ~n ~inputs |] }

  (* Re-executes [moves] from the longest proper prefix of [from] it
     starts with ([==] on moves: shrink candidates are built from the
     best schedule's own moves). Returns the shortest violating prefix
     together with the violated property, or [None] — also when some
     move is not applicable, so shrink candidates that break FIFO
     indices are rejected rather than misapplied. The verdict is the
     one a replay from the initial configuration gives. *)
  let replay ~n ~props from moves =
    let last = Array.length from.p_cfgs - 1 in
    let rec shared k ms bs =
      match (ms, bs) with
      | mv :: ms', b :: bs' when k < last && mv == b -> shared (k + 1) ms' bs'
      | _ -> (k, ms)
    in
    let k, rest = shared 0 moves from.p_moves in
    let rec go cfg i cfgs = function
      | [] -> None
      | mv :: rest ->
        if not (S.applicable ~n cfg mv) then None
        else
          let cfg' = S.apply ~n cfg mv in
          (match check_props props (S.state cfg') with
          | Some (name, detail) ->
            let p_cfgs =
              Array.append
                (Array.sub from.p_cfgs 0 (k + 1))
                (Array.of_list (List.rev cfgs))
            in
            Some ({ p_moves = take (i + 1) moves; p_cfgs }, name, detail)
          | None -> go cfg' (i + 1) (cfg' :: cfgs) rest)
    in
    go from.p_cfgs.(k) k [] rest

  (* ------------------------------------------------------------------ *)
  (* Certified shrinking (ddmin over the recorded schedule)             *)
  (* ------------------------------------------------------------------ *)

  (* Candidate re-executions one shrink may spend; past it the result
     is the best schedule found so far. *)
  let max_candidates = 20_000

  let shrink_schedule ~n ~inputs ~props moves =
    let spent = ref 0 in
    (* Every candidate is built from the current best's list cells, so
       it replays from the longest prefix it shares with the best. *)
    let best = ref (root ~n ~inputs) in
    let try_ ms =
      if !spent >= max_candidates then None
      else (
        incr spent;
        Option.map (fun (p, _, _) -> p) (replay ~n ~props !best ms))
    in
    match try_ moves with
    | None -> Error "schedule does not reach a property violation"
    | Some p ->
      best := p;
      let remove ms lo k =
        List.filteri (fun i _ -> i < lo || i >= lo + k) ms
      in
      (* One sweep at chunk size [k]: try deleting every aligned chunk
         of the current best schedule; an accepted deletion re-truncates
         to the new shortest violating prefix. Returns whether any
         deletion was accepted. *)
      let sweep k =
        let progress = ref false in
        let i = ref 0 in
        while !i < List.length !best.p_moves && !spent < max_candidates do
          match try_ (remove !best.p_moves !i k) with
          | Some p ->
            best := p;
            progress := true
          | None -> i := !i + k
        done;
        !progress
      in
      (* ddmin deletion to a fixed point: halving granularities, then
         single moves until 1-minimal (no single move deletable). *)
      let delete_fixpoint () =
        let k = ref (max 1 (List.length !best.p_moves / 2)) in
        while !k > 1 do
          ignore (sweep !k);
          k := max 1 (!k / 2)
        done;
        while sweep 1 && !spent < max_candidates do
          ()
        done
      in
      delete_fixpoint ();
      (* Drain skipping. A FIFO-sampled schedule pays for every needed
         message by first receiving everything sent before it on the
         same channel, and plain deletion cannot remove those drain
         steps: deleting a receive re-aims every later index-0 receive
         on the channel at the wrong envelope. The paper's message
         buffer is a set (§2.1), the move alphabet indexes the whole
         pending list, and the replay certificate names envelopes
         explicitly — so instead {e park} the skipped message: delete
         the receive and shift every later same-channel receive (or
         drop) at an index not below the skipped one up by one, which
         keeps each of them aimed at the same envelope. This is the
         pass that lets FIFO-sampled counterexamples shrink past the
         FIFO-minimal length. *)
      let skip_drain i =
        match List.nth_opt !best.p_moves i with
        | None | Some { M.m_drop = true; _ } -> None
        | Some (mv : M.move) ->
          (match mv.m_recv with
          | None -> None
          | Some (src, k) ->
            Some
              (!best.p_moves
              |> List.mapi (fun j m -> (j, m))
              |> List.filter_map (fun (j, (m : M.move)) ->
                     if j = i then None
                     else if j > i && m.m_pid = mv.m_pid then
                       match m.m_recv with
                       | Some (s, k') when s = src && k' >= k ->
                         Some { m with M.m_recv = Some (s, k' + 1) }
                       | _ -> Some m
                     else Some m)))
      in
      let drain_sweep () =
        let progress = ref false in
        let i = ref 0 in
        while !i < List.length !best.p_moves && !spent < max_candidates do
          match skip_drain !i with
          | None -> incr i
          | Some cand ->
            (match try_ cand with
            | Some p ->
              best := p;
              progress := true
            | None -> incr i)
        done;
        !progress
      in
      while drain_sweep () && !spent < max_candidates do
        delete_fixpoint ()
      done;
      (* Loss-budget reduction: drop moves only reduce what the network
         delivers, so try discarding all of them at once (the sweeps
         above already tried them one by one). *)
      (match
         try_
           (List.filter (fun (mv : M.move) -> not mv.m_drop) !best.p_moves)
       with
      | Some p -> best := p
      | None -> ());
      (* Deletion alone stalls in local minima created by detector
         choices: a step that sampled a wasteful quorum cannot be
         deleted when the process's participation is load-bearing, yet
         resampling its value would let several other steps go.
         Coordinate descent over fd values: replace one move's value
         with another value the same process used elsewhere in the raw
         schedule (so the replacement stays inside the sampled menu),
         keep the rewrite only if a deletion pass then strictly
         shortens the schedule. *)
      let alts_of =
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (mv : M.move) ->
            if not mv.m_drop then begin
              let vs =
                Option.value ~default:[] (Hashtbl.find_opt tbl mv.m_pid)
              in
              if not (List.exists (Sim.Fd_value.equal mv.m_fd) vs) then
                Hashtbl.replace tbl mv.m_pid (mv.m_fd :: vs)
            end)
          moves;
        fun pid -> Option.value ~default:[] (Hashtbl.find_opt tbl pid)
      in
      (* [attempt cand]: adopt the rewritten schedule iff it still
         violates and a deletion pass then strictly shortens. *)
      let attempt cand =
        let len0 = List.length !best.p_moves in
        match try_ cand with
        | None -> false
        | Some p ->
          let saved = !best in
          best := p;
          delete_fixpoint ();
          if List.length !best.p_moves < len0 then true
          else (
            best := saved;
            false)
      in
      let rewrite_all pid v =
        List.map
          (fun (mv : M.move) ->
            if mv.m_pid = pid && not mv.m_drop then { mv with m_fd = v }
            else mv)
          !best.p_moves
      in
      let rewrite_suffix pid j v =
        List.mapi
          (fun i (mv : M.move) ->
            if i >= j && mv.m_pid = pid && not mv.m_drop then
              { mv with m_fd = v }
            else mv)
          !best.p_moves
      in
      let rewrite_one i v =
        List.mapi
          (fun j (mv : M.move) -> if j = i then { mv with m_fd = v } else mv)
          !best.p_moves
      in
      let pids ms =
        List.sort_uniq compare
          (List.filter_map
             (fun (mv : M.move) -> if mv.m_drop then None else Some mv.m_pid)
             ms)
      in
      (* The process's value-switch points: a schedule that switches
         quorum families mid-run (the contamination shape) canonicalizes
         by rewriting whole suffixes, which single-step replacement
         cannot reach. *)
      let switch_points pid =
        let rec go i prev = function
          | [] -> []
          | (mv : M.move) :: rest ->
            if mv.m_drop || mv.m_pid <> pid then go (i + 1) prev rest
            else if
              match prev with
              | None -> false
              | Some v -> not (Sim.Fd_value.equal v mv.m_fd)
            then i :: go (i + 1) (Some mv.m_fd) rest
            else go (i + 1) (Some mv.m_fd) rest
        in
        go 0 None !best.p_moves
      in
      let improved = ref true in
      while !improved && !spent < max_candidates do
        improved := false;
        (* Whole-process canonicalization. *)
        List.iter
          (fun pid ->
            List.iter
              (fun v ->
                if (not !improved) && attempt (rewrite_all pid v) then
                  improved := true)
              (alts_of pid))
          (pids !best.p_moves);
        (* Suffix canonicalization from each value-switch point. *)
        if not !improved then
          List.iter
            (fun pid ->
              List.iter
                (fun j ->
                  List.iter
                    (fun v ->
                      if (not !improved) && attempt (rewrite_suffix pid j v)
                      then improved := true)
                    (alts_of pid))
                (switch_points pid))
            (pids !best.p_moves);
        (* Single-move replacement, the finest grain. *)
        if not !improved then begin
          let i = ref 0 in
          while !i < List.length !best.p_moves && !spent < max_candidates do
            let mv_i = List.nth !best.p_moves !i in
            if not mv_i.m_drop then
              List.iter
                (fun v ->
                  if
                    (not (Sim.Fd_value.equal v mv_i.m_fd))
                    && (not !improved)
                    && attempt (rewrite_one !i v)
                  then improved := true)
                (alts_of mv_i.m_pid);
            incr i
          done
        end;
        (* Value rewrites can unlock fresh drains and vice versa. *)
        if (not !improved) && drain_sweep () then begin
          delete_fixpoint ();
          improved := true
        end
      done;
      Ok (!best.p_moves, !spent)

  (* ------------------------------------------------------------------ *)
  (* Samplers                                                           *)
  (* ------------------------------------------------------------------ *)

  (* Delivery moves outweigh lambda and network drops, and the process
     scheduled last keeps an inertia bonus: protocol-level progress
     (complete a phase, finish a round) takes bursts of consecutive
     same-process steps that a memoryless uniform draw almost never
     produces — the minimal §6.3 contamination schedules are made of
     exactly such bursts (a faulty process solo-deciding, a decider
     draining its quorum's messages). *)
  let inertia = 5

  let move_weight ~prev (mv : M.move) =
    let base =
      if mv.m_drop then 1 else match mv.m_recv with Some _ -> 3 | None -> 1
    in
    if prev = mv.m_pid then base * inertia else base

  (* Weighted choice among [cands]; total weight is positive because
     every move weighs at least 1. Weights are small integers, so the
     running sums are exact as floats and the draw is compared with
     them without rounding. *)
  let weighted_pick ~prev rng cands =
    let total =
      List.fold_left (fun a mv -> a + move_weight ~prev mv) 0 cands
    in
    let x = Random.State.float rng (float_of_int total) in
    let rec go acc = function
      | [ last ] -> last
      | mv :: rest ->
        let acc = acc + move_weight ~prev mv in
        if x < float_of_int acc then mv else go acc rest
      | [] -> assert false
    in
    go 0 cands

  (* PCT per-run scheduler state: distinct per-process priorities and
     d-1 priority-change points. [pct_next] is the index of the next
     unused change point; demoted processes get distinct negative
     priorities so the order among demoted processes is the demotion
     order, as in the PCT construction. *)
  type pct = {
    prio : float array;
    change_at : int array; (* sorted step indices, d-1 of them *)
    mutable pct_next : int;
  }

  let pct_init rng ~n ~d ~max_steps =
    let perm = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let prio = Array.make n 0.0 in
    Array.iteri (fun rank p -> prio.(p) <- float_of_int (n - rank)) perm;
    let change_at =
      Array.init (max 0 (d - 1)) (fun _ ->
          1 + Random.State.int rng (max 1 (max_steps - 1)))
    in
    Array.sort compare change_at;
    { prio; change_at; pct_next = 0 }

  let pct_pick pct rng ~step cands =
    (* Fire every change point scheduled at or before this step: demote
       the currently top-priority process among all processes. *)
    while
      pct.pct_next < Array.length pct.change_at
      && pct.change_at.(pct.pct_next) <= step
    do
      let top = ref 0 in
      Array.iteri
        (fun p pr -> if pr > pct.prio.(!top) then top := p)
        pct.prio;
      pct.prio.(!top) <- -.float_of_int (pct.pct_next + 1);
      pct.pct_next <- pct.pct_next + 1
    done;
    (* Highest-priority process owning a candidate move runs; its move
       is a weighted draw among that process's candidates. *)
    let best_pid = ref (-1) in
    List.iter
      (fun (mv : M.move) ->
        if !best_pid < 0 || pct.prio.(mv.m_pid) > pct.prio.(!best_pid) then
          best_pid := mv.m_pid)
      cands;
    let mine = List.filter (fun (mv : M.move) -> mv.m_pid = !best_pid) cands in
    weighted_pick ~prev:!best_pid rng mine

  (* ------------------------------------------------------------------ *)
  (* Coverage                                                           *)
  (* ------------------------------------------------------------------ *)

  type coverage = {
    states : Kset.t;
    depths : Kset.t;
    shapes : Kset.t;
    sigs : Kset.t;
    traces : Kset.t;
  }

  let cov_create () =
    {
      states = Kset.create 4096;
      depths = Kset.create 64;
      shapes = Kset.create 1024;
      sigs = Kset.create 64;
      traces = Kset.create 1024;
    }

  let cov_add tbl key = ignore (Kset.add_new tbl key : bool)

  let cov_totals cov =
    {
      distinct_states = Kset.length cov.states;
      decision_depths = Kset.length cov.depths;
      quorum_shapes = Kset.length cov.shapes;
      fault_signatures = Kset.length cov.sigs;
      canonical_traces = Kset.length cov.traces;
    }

  (* Deep structural hash (same spirit as [Space.key]): a coverage
     bucket, not an identity. *)
  let deep_hash v = Hashtbl.hash_param 200 800 v

  (* ------------------------------------------------------------------ *)
  (* The fuzz loop                                                      *)
  (* ------------------------------------------------------------------ *)

  type batch_cfg = {
    c_menu : Mc.Menu.t;
    c_menus : Sim.Fd_value.t list array;
    c_sampler : sampler;
    c_budget : int;
    c_stab : int;
  }

  let menus_of ~n (menu : Mc.Menu.t) = Array.init n (fun p -> menu.values p)

  let draw rng base = function
    | [] -> base
    | l -> List.nth l (Random.State.int rng (List.length l))

  type run_outcome =
    | Violation of M.move list * string * string
    | Decided
    | Quiesced
    | Bound

  let exec_run ~n ~inputs ~props ~(bc : batch_cfg) ~delivery ~max_steps ~rng
      ~cov ~stop ~decided =
    let pct =
      match bc.c_sampler with
      | Uniform -> None
      | Pct d -> Some (pct_init rng ~n ~d ~max_steps)
    in
    let cfg = ref (S.initial ~n ~inputs) in
    let verdicts = S.verdicts !cfg in
    let stable = stable_menus bc.c_menus in
    let moves = ref [] in
    let drops = ref 0 in
    let first_decision = ref None in
    let steps = ref 0 in
    let prev = ref (-1) in
    let outcome = ref Bound in
    (try
       for step = 0 to max_steps - 1 do
         let lossy = bc.c_menu.lossy && !drops < bc.c_budget in
         let menus = if step < bc.c_stab then bc.c_menus else stable in
         (* Self-loop moves neither change state nor coverage; a run
            with only self-loop moves left has quiesced. Each lambda
            and self-delivery verdict is decided once per process
            state and self-channel ([S.candidates]); the run then
            applies the drawn move. *)
         let cands = S.candidates verdicts ~n ~delivery ~lossy ~menus !cfg in
         if cands = [] then (
           outcome := Quiesced;
           raise Exit);
         let mv =
           match pct with
           | None -> weighted_pick ~prev:!prev rng cands
           | Some pct -> pct_pick pct rng ~step cands
         in
         cfg := S.apply ~n !cfg mv;
         prev := mv.m_pid;
         moves := mv :: !moves;
         incr steps;
         if mv.m_drop then incr drops;
         cov_add cov.states (S.key !cfg);
         (if !first_decision = None then
            match decided with
            | Some d when List.exists (fun p -> d (S.state !cfg p)) (Pid.all ~n)
              ->
              first_decision := Some step;
              cov_add cov.depths step
            | _ -> ());
         (match check_props props (S.state !cfg) with
         | Some (name, detail) ->
           outcome := Violation (List.rev !moves, name, detail);
           raise Exit
         | None -> ());
         match stop with
         | Some st when st (S.state !cfg) ->
           outcome := Decided;
           raise Exit
         | _ -> ()
       done
     with Exit -> ());
    (* Run-shape coverage: the (process, detector value) sequence of
       the schedule, and the placement of its network drops. *)
    let ms = List.rev !moves in
    cov_add cov.shapes
      (deep_hash
         (List.filter_map
            (fun (mv : M.move) ->
              if mv.m_drop then None else Some (mv.m_pid, mv.m_fd))
            ms));
    cov_add cov.sigs
      (deep_hash
         (List.mapi (fun i (mv : M.move) -> (i, mv)) ms
         |> List.filter_map (fun (i, (mv : M.move)) ->
                if mv.m_drop then Some (i, mv.m_pid, mv.m_recv) else None)));
    (* Mazurkiewicz-class coverage: the checker's happens-before
       independence relation canonicalises the schedule, so two runs
       differing only in swaps of independent adjacent moves count as
       one trace. A flat trace count against [runs] measures how much
       of the fuzz budget re-samples equivalent interleavings. *)
    cov_add cov.traces (M.trace_key ms);
    (!steps, !outcome, ms)

  (* One fuzz batch, self-contained: its configuration comes from the
     batch's own seed stream, each run from the split seed
     [(seed, salt_run, batch, run)], and coverage goes to a private
     per-batch tracker recording the keys the batch touched.
     [exec_run] writes to the tracker but never reads it, so running a
     batch against a private tracker and merging the key sets in batch
     order afterwards reproduces the sequential tracker's counts
     exactly — which is what makes batches the unit of parallelism
     without giving up byte-determinism. *)
  type batch_result = {
    r_bc : batch_cfg;
    r_runs : int;  (* executed — below plan when a violation stops the batch *)
    r_steps : int;
    r_decided : int;
    r_quiesced : int;
    r_cov : coverage;
    r_violation : (int * M.move list * string * string) option;
        (* (run offset within the batch, raw schedule, property, detail) *)
  }

  let bc_of ~n ~seed ~base ~swarm b =
    match swarm with
    | None -> base
    | Some sw ->
      let rng_b = Random.State.make [| seed; salt_batch; b |] in
      let menu = draw rng_b base.c_menu sw.sw_menus in
      {
        c_menu = menu;
        c_menus = menus_of ~n menu;
        c_budget = draw rng_b base.c_budget sw.sw_budgets;
        c_stab = draw rng_b base.c_stab sw.sw_stabs;
        c_sampler = draw rng_b base.c_sampler sw.sw_samplers;
      }

  let run_batch ~n ~inputs ~props ~delivery ~max_steps ~seed ~base ~swarm
      ~batch_size ~runs ~stop ~decided b =
    let bc = bc_of ~n ~seed ~base ~swarm b in
    let start = b * batch_size in
    let in_batch = min batch_size (runs - start) in
    let cov = cov_create () in
    let steps_total = ref 0 in
    let decided_runs = ref 0 in
    let quiesced_runs = ref 0 in
    let violation = ref None in
    let r = ref 0 in
    while !violation = None && !r < in_batch do
      let run_ix = start + !r in
      let rng = Random.State.make [| seed; salt_run; b; run_ix |] in
      let steps, outcome, _moves =
        exec_run ~n ~inputs ~props ~bc ~delivery ~max_steps ~rng ~cov ~stop
          ~decided
      in
      steps_total := !steps_total + steps;
      (match outcome with
      | Violation (moves, name, detail) ->
        violation := Some (!r, moves, name, detail)
      | Decided -> incr decided_runs
      | Quiesced -> incr quiesced_runs
      | Bound -> ());
      incr r
    done;
    {
      r_bc = bc;
      r_runs = !r;
      r_steps = !steps_total;
      r_decided = !decided_runs;
      r_quiesced = !quiesced_runs;
      r_cov = cov;
      r_violation = !violation;
    }

  (* ------------------------------------------------------------------ *)
  (* Campaign checkpoints                                                *)
  (* ------------------------------------------------------------------ *)

  (* Fuzz checkpoints share [Mc.Codec]'s container with the checker's
     but use a distinct schema version, so resuming a fuzz campaign
     from an mc checkpoint (or vice versa) fails as [Bad_version]
     before any unmarshalling. *)
  let ckpt_version = 2

  (* The campaign shape that must match for a resume to be meaningful:
     everything the batch seed streams and the merge are functions
     of. [runs] is included — a fuzz campaign's batch grid is fixed up
     front, unlike the checker's state budget. *)
  type fingerprint = {
    fp_algo : string;
    fp_seed : int;
    fp_sampler : string;
    fp_swarm : bool;
    fp_runs : int;
    fp_batch : int;
    fp_max_steps : int;
    fp_max_drops : int;
    fp_n : int;
    fp_menu : string;
    fp_delivery : string;
  }

  let fp_describe fp =
    Printf.sprintf
      "algo=%S seed=%d sampler=%s swarm=%b runs=%d batch=%d max_steps=%d \
       max_drops=%d n=%d menu=%S delivery=%s"
      fp.fp_algo fp.fp_seed fp.fp_sampler fp.fp_swarm fp.fp_runs fp.fp_batch
      fp.fp_max_steps fp.fp_max_drops fp.fp_n fp.fp_menu fp.fp_delivery

  (* The merged campaign state at a batch boundary: coverage key sets
     (as raw int arrays), the curve so far, the counters, and the
     first unmerged batch. Restoring it and merging the remaining
     batches reproduces the straight-through campaign byte for byte —
     per-batch results depend only on (seed, batch index), and merged
     novelty counts depend only on set membership, not insertion
     order (pinned in test_explore.ml). *)
  type ckpt = {
    ck_fp : fingerprint;
    ck_next : int;
    ck_states : int array;
    ck_depths : int array;
    ck_shapes : int array;
    ck_sigs : int array;
    ck_traces : int array;
    ck_curve : batch_point list;  (* reversed: merge order, newest first *)
    ck_counts : int array;  (* runs_done, steps_total, decided, quiesced *)
  }

  let kset_export s =
    let acc = ref [] in
    Kset.iter (fun k -> acc := k :: !acc) s;
    Array.of_list !acc

  let fuzz ?(algo = "unnamed") ?(sampler = Uniform) ?swarm ?(batch_size = 1000)
      ?(delivery = `Fifo) ?max_steps ?(max_drops = 1) ?(shrink = true)
      ?(jobs = 1) ?checkpoint ?resume ?max_batches ?stop ?decided ~seed ~runs
      ~n ~menu ~pattern ~inputs ~props () =
    let t0 = Sim.Clock.now () in
    let max_steps =
      match max_steps with Some m -> m | None -> 18 * n
    in
    let base =
      {
        c_menu = menu;
        c_menus = menus_of ~n menu;
        c_sampler = sampler;
        c_budget = max_drops;
        c_stab = max_steps;
      }
    in
    let nbatches = if runs <= 0 then 0 else ((runs - 1) / batch_size) + 1 in
    let fp =
      {
        fp_algo = algo;
        fp_seed = seed;
        fp_sampler = sampler_name sampler;
        fp_swarm = swarm <> None;
        fp_runs = runs;
        fp_batch = batch_size;
        fp_max_steps = max_steps;
        fp_max_drops = max_drops;
        fp_n = n;
        fp_menu = menu.Mc.Menu.name;
        fp_delivery = (match delivery with `Fifo -> "fifo" | `Any -> "any");
      }
    in
    let cov = cov_create () in
    let curve = ref [] in
    let raw_violation = ref None in
    let runs_done = ref 0 in
    let steps_total = ref 0 in
    let decided_runs = ref 0 in
    let quiesced_runs = ref 0 in
    let start =
      match resume with
      | None -> 0
      | Some path -> (
        match
          (Mc.Codec.read_file ~path ~version:ckpt_version
            : (ckpt, Mc.Codec.error) result)
        with
        | Error e -> raise (Mc.Resume_rejected e)
        | Ok c ->
          if c.ck_fp <> fp then
            raise
              (Mc.Resume_rejected
                 (Mc.Codec.Params_mismatch
                    (Printf.sprintf "checkpoint {%s} vs campaign {%s}"
                       (fp_describe c.ck_fp) (fp_describe fp))));
          Array.iter (cov_add cov.states) c.ck_states;
          Array.iter (cov_add cov.depths) c.ck_depths;
          Array.iter (cov_add cov.shapes) c.ck_shapes;
          Array.iter (cov_add cov.sigs) c.ck_sigs;
          Array.iter (cov_add cov.traces) c.ck_traces;
          curve := c.ck_curve;
          runs_done := c.ck_counts.(0);
          steps_total := c.ck_counts.(1);
          decided_runs := c.ck_counts.(2);
          quiesced_runs := c.ck_counts.(3);
          c.ck_next)
    in
    let last_ckpt = ref start in
    let write_ckpt next =
      match checkpoint with
      | None -> ()
      | Some (path, _) ->
        Mc.Codec.write_file ~path ~version:ckpt_version
          {
            ck_fp = fp;
            ck_next = next;
            ck_states = kset_export cov.states;
            ck_depths = kset_export cov.depths;
            ck_shapes = kset_export cov.shapes;
            ck_sigs = kset_export cov.sigs;
            ck_traces = kset_export cov.traces;
            ck_curve = !curve;
            ck_counts =
              [| !runs_done; !steps_total; !decided_runs; !quiesced_runs |];
          };
        last_ckpt := next
    in
    (* Batches are independent given their index, so they are the unit
       of parallel dispatch over the domain pool, in chunks of
       [2 * jobs] batches: the results array and the work done past a
       violation stay bounded whatever [runs] is, and the boundary
       where a checkpoint is consistent recurs. [cutoff] is the
       earliest batch known to hold a violation: workers skip later
       batches outright (results past the cutoff are discarded by the
       merge anyway). Every batch below the final cutoff is computed:
       the pool hands out indices in increasing order, and the cutoff
       only ever decreases to an index that was actually computed.
       Chunking is invisible to the merged result — each batch result
       is a function of (seed, index) alone, and the merge always runs
       in batch order — which is what keeps the report byte-identical
       across straight-through, interrupted and resumed campaigns at
       any [jobs] (pinned in test_explore.ml). *)
    let seg_limit =
      match max_batches with None -> max_int | Some m -> max 0 m
    in
    let chunk = max 1 (2 * jobs) in
    let b = ref start in
    let seg_done = ref 0 in
    while !raw_violation = None && !b < nbatches && !seg_done < seg_limit do
      let lo = !b in
      let hi = min nbatches (lo + min chunk (seg_limit - !seg_done)) in
      let results = Array.make (hi - lo) None in
      let cutoff = Atomic.make max_int in
      let rec lower b' =
        let c = Atomic.get cutoff in
        if b' < c && not (Atomic.compare_and_set cutoff c b') then lower b'
      in
      Mc.Pool.run ~jobs (hi - lo) (fun ~worker:_ j ->
          let bb = lo + j in
          if bb <= Atomic.get cutoff then begin
            let res =
              run_batch ~n ~inputs ~props ~delivery ~max_steps ~seed ~base
                ~swarm ~batch_size ~runs ~stop ~decided bb
            in
            if res.r_violation <> None then lower bb;
            results.(j) <- Some res
          end);
      (* Merge in batch order: curve, totals, counters and the
         earliest violation all replay the sequential loop byte for
         byte, for any [jobs]. *)
      let j = ref 0 in
      while !raw_violation = None && !j < hi - lo do
        let bb = lo + !j in
        (match results.(!j) with
        | None ->
          (* unreachable: batches up to the earliest violation are
             always computed *)
          assert false
        | Some res ->
          let states0 = Kset.length cov.states in
          let depths0 = Kset.length cov.depths in
          let shapes0 = Kset.length cov.shapes in
          let sigs0 = Kset.length cov.sigs in
          let traces0 = Kset.length cov.traces in
          Kset.iter (cov_add cov.states) res.r_cov.states;
          Kset.iter (cov_add cov.depths) res.r_cov.depths;
          Kset.iter (cov_add cov.shapes) res.r_cov.shapes;
          Kset.iter (cov_add cov.sigs) res.r_cov.sigs;
          Kset.iter (cov_add cov.traces) res.r_cov.traces;
          runs_done := !runs_done + res.r_runs;
          steps_total := !steps_total + res.r_steps;
          decided_runs := !decided_runs + res.r_decided;
          quiesced_runs := !quiesced_runs + res.r_quiesced;
          let bc = res.r_bc in
          curve :=
            {
              bp_batch = bb;
              bp_runs = !runs_done;
              bp_menu = bc.c_menu.name;
              bp_sampler = sampler_name bc.c_sampler;
              bp_budget = (if bc.c_menu.lossy then bc.c_budget else 0);
              bp_stab = bc.c_stab;
              bp_states = Kset.length cov.states;
              bp_new_states = Kset.length cov.states - states0;
              bp_new_depths = Kset.length cov.depths - depths0;
              bp_new_shapes = Kset.length cov.shapes - shapes0;
              bp_new_sigs = Kset.length cov.sigs - sigs0;
              bp_new_traces = Kset.length cov.traces - traces0;
            }
            :: !curve;
          (match res.r_violation with
          | Some (local_r, moves, name, detail) ->
            raw_violation :=
              Some ((bb * batch_size) + local_r, bb, bc, moves, name, detail)
          | None -> ()));
        incr j
      done;
      b := lo + !j;
      seg_done := !seg_done + (hi - lo);
      if !raw_violation = None then
        match checkpoint with
        | Some (_, every) when !b - !last_ckpt >= every -> write_ckpt !b
        | _ -> ()
    done;
    (* Segment boundary (or completion) without a violation: persist
       the cursor so a later [?resume] continues — or, when complete,
       reports completion. A violating campaign is final; it writes no
       checkpoint. *)
    if !raw_violation = None && checkpoint <> None && !last_ckpt <> !b then
      write_ckpt !b;
    let violation =
      match !raw_violation with
      | None -> None
      | Some (run_ix, batch, bc, moves, name0, detail0) ->
        let shrunk, candidates =
          if not shrink then (moves, 0)
          else
            match shrink_schedule ~n ~inputs ~props moves with
            | Ok (ms, spent) -> (ms, spent)
            | Error _ -> (moves, 0)
        in
        (* The shrunk schedule may violate a different property than
           the raw one did — re-derive, then certify. *)
        let prop_name, detail =
          match replay ~n ~props (root ~n ~inputs) shrunk with
          | Some (_, name, detail) -> (name, detail)
          | None -> (name0, detail0)
        in
        let steps, samples, states = S.concretize ~n ~inputs shrunk in
        let cx =
          {
            M.cx_property = prop_name;
            cx_detail = detail;
            cx_moves = shrunk;
            cx_steps = steps;
            cx_samples = samples;
            cx_states = states;
          }
        in
        let replay_ok =
          match M.replay_counterexample ~n ~inputs cx with
          | Error _ -> false
          | Ok replayed -> (
            match
              check_props
                (List.filter
                   (fun (p : M.property) -> p.prop_name = prop_name)
                   props)
                (fun p -> replayed.(p))
            with
            | Some _ -> true (* independently re-violates *)
            | None -> false)
        in
        let history_ok =
          match
            Mc.history_legal ~kind:bc.c_menu.kind ~pattern samples
          with
          | Ok () -> true
          | Error _ -> false
        in
        Some
          {
            v_run = run_ix;
            v_batch = batch;
            v_property = prop_name;
            v_detail = detail;
            v_menu = bc.c_menu.name;
            v_sampler = sampler_name bc.c_sampler;
            v_budget = (if bc.c_menu.lossy then bc.c_budget else 0);
            v_stab = bc.c_stab;
            v_moves = moves;
            v_shrunk = shrunk;
            v_candidates = candidates;
            v_cx = cx;
            v_replay_ok = replay_ok;
            v_history_ok = history_ok;
          }
    in
    {
      algorithm = algo;
      seed;
      sampler = sampler_name sampler;
      swarm = swarm <> None;
      runs = !runs_done;
      max_steps;
      steps_total = !steps_total;
      decided_runs = !decided_runs;
      quiesced_runs = !quiesced_runs;
      curve = List.rev !curve;
      totals = cov_totals cov;
      violation;
      wall_seconds = Sim.Clock.elapsed t0;
    }

  (* ------------------------------------------------------------------ *)
  (* Reporting                                                          *)
  (* ------------------------------------------------------------------ *)

  let str_of_move (mv : M.move) =
    let recv =
      match mv.m_recv with
      | None -> "lambda"
      | Some (src, i) -> Printf.sprintf "p%d#%d" src i
    in
    if mv.m_drop then Printf.sprintf "drop %s->p%d" recv mv.m_pid
    else
      Format.asprintf "p%d recv=%s fd=%a" mv.m_pid recv Sim.Fd_value.pp
        mv.m_fd

  let json_of_totals t =
    Report.Obj
      [
        ("distinct_states", Report.Int t.distinct_states);
        ("decision_depths", Report.Int t.decision_depths);
        ("quorum_shapes", Report.Int t.quorum_shapes);
        ("fault_signatures", Report.Int t.fault_signatures);
        ("canonical_traces", Report.Int t.canonical_traces);
      ]

  let json_of_batch_point bp =
    Report.Obj
      [
        ("batch", Report.Int bp.bp_batch);
        ("runs", Report.Int bp.bp_runs);
        ("menu", Report.Str bp.bp_menu);
        ("sampler", Report.Str bp.bp_sampler);
        ("budget", Report.Int bp.bp_budget);
        ("stab", Report.Int bp.bp_stab);
        ("states", Report.Int bp.bp_states);
        ("new_states", Report.Int bp.bp_new_states);
        ("new_depths", Report.Int bp.bp_new_depths);
        ("new_shapes", Report.Int bp.bp_new_shapes);
        ("new_sigs", Report.Int bp.bp_new_sigs);
        ("new_traces", Report.Int bp.bp_new_traces);
      ]

  let json_of_violation v =
    Report.Obj
      [
        ("run", Report.Int v.v_run);
        ("batch", Report.Int v.v_batch);
        ("property", Report.Str v.v_property);
        ("detail", Report.Str v.v_detail);
        ("menu", Report.Str v.v_menu);
        ("sampler", Report.Str v.v_sampler);
        ("budget", Report.Int v.v_budget);
        ("stab", Report.Int v.v_stab);
        ("raw_steps", Report.Int (List.length v.v_moves));
        ("shrunk_steps", Report.Int (List.length v.v_shrunk));
        ("shrink_candidates", Report.Int v.v_candidates);
        ("replay_ok", Report.Bool v.v_replay_ok);
        ("history_ok", Report.Bool v.v_history_ok);
        ( "schedule",
          Report.List
            (List.map (fun mv -> Report.Str (str_of_move mv)) v.v_shrunk) );
      ]

  (* Deliberately excludes [wall_seconds]: the document must be
     byte-deterministic in the fuzz arguments. *)
  let json_of_report r =
    Report.Obj
      [
        ("algorithm", Report.Str r.algorithm);
        ("seed", Report.Int r.seed);
        ("sampler", Report.Str r.sampler);
        ("swarm", Report.Bool r.swarm);
        ("runs", Report.Int r.runs);
        ("max_steps", Report.Int r.max_steps);
        ("steps_total", Report.Int r.steps_total);
        ("decided_runs", Report.Int r.decided_runs);
        ("quiesced_runs", Report.Int r.quiesced_runs);
        ("totals", json_of_totals r.totals);
        ("curve", Report.List (List.map json_of_batch_point r.curve));
        ( "violation",
          match r.violation with
          | None -> Report.Null
          | Some v -> json_of_violation v );
      ]

  let pp_report fmt r =
    Format.fprintf fmt
      "@[<v>fuzz %s: %d runs (%d steps), sampler=%s%s, %d decided, %d \
       quiesced, %.2fs@,\
       coverage: %d states, %d decision depths, %d shapes, %d fault sigs, \
       %d traces@]"
      r.algorithm r.runs r.steps_total r.sampler
      (if r.swarm then "+swarm" else "")
      r.decided_runs r.quiesced_runs r.wall_seconds r.totals.distinct_states
      r.totals.decision_depths r.totals.quorum_shapes
      r.totals.fault_signatures r.totals.canonical_traces;
    match r.violation with
    | None -> Format.fprintf fmt "@.no violation found@."
    | Some v ->
      Format.fprintf fmt
        "@.VIOLATION of %s at run %d (batch %d, menu %s, sampler %s): %s@.\
         shrunk %d -> %d moves (%d candidates); replay %s; history %s@."
        v.v_property v.v_run v.v_batch v.v_menu v.v_sampler v.v_detail
        (List.length v.v_moves)
        (List.length v.v_shrunk)
        v.v_candidates
        (if v.v_replay_ok then "OK" else "FAILED")
        (if v.v_history_ok then "OK" else "FAILED");
      List.iteri
        (fun i mv -> Format.fprintf fmt "  %2d. %s@." i (str_of_move mv))
        v.v_shrunk
end
