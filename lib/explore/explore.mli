(** Randomized schedule exploration (fuzzing) beyond the model
    checker's horizon.

    [lib/mc] certifies small universes exhaustively, but its state
    spaces drown a few processes past depth ~11 — every claim at
    [n >= 5] would otherwise rest on hand-picked seeds. This module
    {e samples} the same schedule space instead of enumerating it:

    - a {b PCT sampler} (probabilistic concurrency testing, after
      Burckhardt et al.): per-process random priorities with [d - 1]
      priority-change points. For a bug of preemption depth [d] in a
      program of [n] processes and at most [k] steps, one PCT run
      finds it with probability at least [1 / (n * k^(d-1))] — a
      provable detection bound exhaustive search cannot offer at this
      scale. A uniform-random baseline quantifies what the priority
      discipline buys.
    - a {b swarm mode} that resamples the menu family, the per-run
      loss budget, the detector stabilization step and the sampler
      itself once per batch, so no single configuration starves the
      others.
    - a {b coverage tracker}: distinct canonical states (the model
      checker's own state hash), decision depths, quorum-history
      shapes and fault-verdict signatures, accumulated per batch into
      a saturation curve — "another 10k runs found nothing new" is a
      measurable claim, not a shrug.
    - a {b certified shrinker}: delta debugging over the recorded
      abstract schedule (prefix truncation, chunk removal, single-move
      and drop-move removal), where every accepted candidate is
      re-validated by re-execution and the final schedule is
      concretized and certified by [Runner.replay] applicability plus
      the perpetual-clause history check — the same certificate
      [lib/mc] produces.

    Everything is driven by one root seed: run [r] of batch [b] uses
    the derived stream [(seed, b, r)] and the batch's swarm draw uses
    [(seed, b)], so every sampled run is replayable byte for byte. *)

open Procset

(** How one run picks its schedule. *)
type sampler =
  | Uniform
      (** at each step, a near-uniform admissible move (delivery moves
          weighted above lambda and network-drop moves) *)
  | Pct of int
      (** [Pct d]: per-process random priorities, [d - 1] random
          priority-change points over the run; at each step the
          highest-priority process with a state-changing move runs.
          [d] is the targeted bug depth (number of ordering
          constraints); [Pct 1] never changes priorities. *)

val sampler_name : sampler -> string
val pp_sampler : Format.formatter -> sampler -> unit

type swarm = {
  sw_menus : Mc.Menu.t list;  (** menu families to rotate (nonempty) *)
  sw_budgets : int list;
      (** per-run loss budgets (only consulted when the drawn menu is
          lossy) *)
  sw_stabs : int list;
      (** detector stabilization steps: after step [s] of a run the
          adversary's menu collapses to each process's first value —
          the benign regime every finite prefix must extend into *)
  sw_samplers : sampler list;  (** samplers to rotate *)
}
(** A batch-level configuration menu. Each batch draws one element of
    every list (uniformly, from the batch's derived seed); an empty
    list means "keep the base configuration". *)

val stable_menus : Sim.Fd_value.t list array -> Sim.Fd_value.t list array
(** The per-process menus in force from a run's stabilization step on:
    each menu cut to the values equal to its first. Every sampled step
    draws from {!Mc.Make.Space.candidates} over the menus in force —
    the checker's own move enumeration less its self-loops, built in
    one pass with each lambda and self-delivery verdict decided once
    per process state — so the sampler keeps no copy of the move
    order. *)

type batch_point = {
  bp_batch : int;
  bp_runs : int;  (** cumulative runs executed after this batch *)
  bp_menu : string;  (** menu family in force during the batch *)
  bp_sampler : string;
  bp_budget : int;  (** loss budget in force (0 when not lossy) *)
  bp_stab : int;  (** stabilization step in force *)
  bp_states : int;  (** cumulative distinct canonical state hashes *)
  bp_new_states : int;  (** newly seen this batch *)
  bp_new_depths : int;  (** new decision depths this batch *)
  bp_new_shapes : int;  (** new quorum-history shapes this batch *)
  bp_new_sigs : int;  (** new fault-verdict signatures this batch *)
  bp_new_traces : int;  (** new canonical Mazurkiewicz traces this batch *)
}
(** One point of the coverage saturation curve. *)

type totals = {
  distinct_states : int;
      (** distinct canonical state hashes over all runs *)
  decision_depths : int;
      (** distinct step indices at which some process first decided *)
  quorum_shapes : int;
      (** distinct (process, detector-value) schedule shapes *)
  fault_signatures : int;
      (** distinct network-drop placements (the all-deliveries
          signature included) *)
  canonical_traces : int;
      (** distinct schedules up to swaps of independent adjacent
          moves, canonicalised by the checker's happens-before
          independence relation ({!Mc.Make.trace_key}); the gap
          between [runs] and this count is fuzz budget spent
          re-sampling equivalent interleavings *)
}

module Make (A : Sim.Automaton.S) : sig
  module M : module type of Mc.Make (A)

  type violation = {
    v_run : int;  (** 0-based global index of the violating run *)
    v_batch : int;
    v_property : string;  (** property violated by the shrunk schedule *)
    v_detail : string;
    v_menu : string;  (** menu family the run executed under *)
    v_sampler : string;
    v_budget : int;
    v_stab : int;
    v_moves : M.move list;  (** the schedule exactly as sampled *)
    v_shrunk : M.move list;  (** after certified shrinking *)
    v_candidates : int;  (** candidate re-executions the shrinker spent *)
    v_cx : M.counterexample;  (** concretized from [v_shrunk] *)
    v_replay_ok : bool;
        (** [Runner.replay] accepts the shrunk concrete trace and the
            replayed states still violate [v_property] *)
    v_history_ok : bool;
        (** the shrunk run's detector samples pass the perpetual
            clauses of the menu's class ({!Mc.history_legal}) *)
  }

  type report = {
    algorithm : string;
    seed : int;
    sampler : string;  (** base sampler (batches may override in swarm) *)
    swarm : bool;
    runs : int;  (** runs actually executed (stops at first violation) *)
    max_steps : int;
    steps_total : int;
    decided_runs : int;  (** runs where [stop] fired *)
    quiesced_runs : int;
        (** runs that ran out of state-changing moves early *)
    curve : batch_point list;
    totals : totals;
    violation : violation option;
    wall_seconds : float;
        (** not serialized by {!json_of_report}, which is
            byte-deterministic in the seed *)
  }

  val fuzz :
    ?algo:string ->
    ?sampler:sampler ->
    ?swarm:swarm ->
    ?batch_size:int ->
    ?delivery:[ `Fifo | `Any ] ->
    ?max_steps:int ->
    ?max_drops:int ->
    ?shrink:bool ->
    ?jobs:int ->
    ?checkpoint:string * int ->
    ?resume:string ->
    ?max_batches:int ->
    ?stop:((Pid.t -> A.state) -> bool) ->
    ?decided:(A.state -> bool) ->
    seed:int ->
    runs:int ->
    n:int ->
    menu:Mc.Menu.t ->
    pattern:Sim.Failure_pattern.t ->
    inputs:(Pid.t -> A.input) ->
    props:M.property list ->
    unit ->
    report
  (** [fuzz ~seed ~runs ~n ~menu ~pattern ~inputs ~props ()] samples
      up to [runs] schedules of at most [max_steps] (default [18 * n])
      moves each, evaluating every property after every move, and
      stops at the first violation. [sampler] (default [Uniform] — the
      §6.3 contamination violation is a {e deep} bug, dozens of
      ordering constraints, where the uniform baseline empirically
      dominates PCT; see EXPERIMENTS.md E13) picks the schedule
      discipline; [delivery] (default [`Fifo]) picks the channel
      model a run samples from: [`Fifo] offers only channel heads,
      which keeps the per-step branching factor small enough for
      random search to land the n = 5 contamination violation in
      thousands of runs, while [`Any] (every pending message, the
      paper's set-shaped buffer) dilutes the draw past practical find
      rates at this depth. The {e shrinker} is not bound by the
      sampling model either way: its drain-skipping pass moves
      FIFO-found schedules into the full indexed space, so shrunk
      counterexamples routinely undercut the FIFO-minimal length
      (~50 steps at n = 5, vs 38 for the unrestricted minimum);
      [swarm] resamples the batch
      configuration every [batch_size] (default 1000) runs;
      [max_drops] (default 1) bounds network drops per run when the
      menu is lossy; [stop] ends a run early (counted in
      [decided_runs]); [decided] feeds the decision-depth coverage
      dimension. A violating schedule is shrunk (unless
      [shrink:false]), concretized, and certified against [pattern]
      and the menu's detector class. [algo] (default ["unnamed"]) only
      labels the report.

      [jobs] (default 1) shards whole batches across a domain pool
      ([Mc.Pool]), dispatched [2 * jobs] batches at a time so memory
      and the work past a violation stay bounded for any [runs]:
      every run already derives from the split seed
      [(seed, batch, run)] and never reads shared state, so batches
      execute independently against per-domain coverage trackers and
      are merged in batch order afterwards — curve, totals, counters
      and the earliest violation replay the sequential loop exactly.
      The report is therefore deterministic in the arguments {e
      including} [jobs]: same seed, same bytes, for any job count
      (pinned in test_explore.ml and test_cli.ml). [wall_seconds] is
      one monotonic-clock read on the coordinating domain, never a
      per-domain sum.

      [checkpoint:(path, every_n_batches)] writes a versioned snapshot
      of the merged campaign state (coverage key sets, curve,
      counters, batch cursor) to [path] at batch-chunk boundaries;
      [resume] restores one after full validation — raising
      {!Mc.Resume_rejected} on a corrupt file, a wrong schema version,
      or a different campaign fingerprint — and continues from the
      cursor. [max_batches] caps the batches processed by this
      segment (the deterministic interruption hook: a partial segment
      still checkpoints and returns a partial report). Because batch
      results are functions of (seed, batch index) alone and the merge
      always runs in batch order, an interrupted-and-resumed campaign's
      report is byte-identical to the straight-through one, at any
      [jobs] (pinned in test_explore.ml). A violating campaign is
      final and writes no checkpoint. *)

  val shrink_schedule :
    n:int ->
    inputs:(Pid.t -> A.input) ->
    props:M.property list ->
    M.move list ->
    (M.move list * int, string) result
  (** Delta-debugs a violating schedule down to a locally minimal one:
      prefix truncation at the first violating state, then chunk
      removal at halving granularities, then single-move and drop-move
      removal, then drain skipping (delete a receive and park the
      skipped message by shifting later same-channel indices up by
      one, which escapes the channel-prefix-draining structure
      FIFO-sampled schedules are locked into — the paper's buffer is
      a set, so the certificate does not care about delivery order),
      then coordinate descent over detector values (replace
      one move's value with another value the same process used in the
      input schedule, kept only when a further deletion pass strictly
      shortens — deletion alone stalls on load-bearing steps that
      merely sampled a wasteful quorum), re-executing every candidate
      ([Error] if the input schedule itself does not reach a
      violation). A candidate replays from the cached configuration
      after the longest prefix it shares with the current best
      schedule, whose proper prefixes are applicable and
      violation-free, so its verdict is the one a replay from the
      initial configuration gives. Every accepted candidate is
      applicable move by move and violates some property of [props];
      the pair is the shrunk schedule and the number of candidate
      re-executions spent (capped at 20,000 — the result is then the
      best schedule found so far). *)

  val json_of_report : report -> Report.t
  (** The fuzz report as a JSON document ([lib/report]); excludes
      wall-clock so the bytes are deterministic in the seed. *)

  val pp_report : Format.formatter -> report -> unit
end
