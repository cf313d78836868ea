(** The experiment suite: one entry point per row of the DESIGN.md
    per-experiment index, the measurement sweeps behind the B-tables,
    one {!Report.Table} column spec per table, and the registry of
    bench sections ({!sections}). The bench harness ([bench/main.exe])
    and the CLI ([bin/nuc_cli.exe]) both drive these.

    The paper is a theory paper — its "evaluation" is a set of
    theorems. Each E-row validates one theorem empirically: randomized
    admissible runs for the algorithmic results, deterministic scripted
    constructions for the proof scenarios. [quick] runs a reduced sweep
    (for the bench executable); the full sweeps run in the test
    suite. *)

type row = {
  id : string;  (** experiment id, e.g. "E4" *)
  theorem : string;  (** the paper result it validates *)
  expected : string;  (** what the paper predicts *)
  measured : string;  (** what this run measured *)
  pass : bool;
}

val pp_row : Format.formatter -> row -> unit
(** The E-table's multi-line text row. *)

val row_spec : row Report.Table.t
(** The E-table's JSON columns (its text is {!pp_row}). *)

val e1_extract_sigma_nu : ?quick:bool -> ?seed_base:int -> unit -> row
(** Thm 5.4: [T_{D->Sigma-nu}] emulates Sigma-nu from a detector that
    solves nonuniform consensus (witness: [A_nuc] with
    [(Omega, Sigma-nu+)]). *)

val e2_extract_sigma : ?quick:bool -> ?seed_base:int -> unit -> row
(** Thm 5.8: the same algorithm emulates full Sigma when the witness
    solves uniform consensus (MR with Sigma quorums). *)

val e3_boost : ?quick:bool -> ?seed_base:int -> unit -> row
(** Thm 6.7: [T_{Sigma-nu -> Sigma-nu+}] emulates Sigma-nu+. *)

val e4_anuc : ?quick:bool -> ?seed_base:int -> unit -> row
(** Thm 6.27: [A_nuc] solves nonuniform consensus with
    [(Omega, Sigma-nu+)] in every [E_t]. *)

val e5_stack : ?quick:bool -> ?seed_base:int -> unit -> row
(** Thm 6.28: the composed stack solves nonuniform consensus from raw
    [(Omega, Sigma-nu)]. *)

val e6_contamination : ?quick:bool -> ?seed_base:int -> unit -> row
(** Section 6.3: the naive substitution violates nonuniform agreement
    under a legal Sigma-nu history; [A_nuc] survives the same
    adversary family. *)

val e7_sigma_scratch : ?quick:bool -> ?seed_base:int -> unit -> row
(** Thm 7.1 (IF): Sigma is implementable from scratch when [t < n/2]. *)

val e8_attack : ?quick:bool -> unit -> row
(** Thm 7.1 (ONLY IF): the two-run construction defeats any live
    emulator when [t >= n/2]; the harvested quorums are disjoint. *)

val e9_merge : ?quick:bool -> ?step_budget:int -> unit -> row
(** Lemma 2.2 / Lemma 5.3: two deciding runs with disjoint
    participants merge into one run in which correct processes
    disagree — the heart of the necessity proof. [step_budget]
    (default 400) bounds each partitioned side; a side that does not
    decide within it yields a failed row ("no merge attempted"), never
    an exception. *)

val e10_not_uniform : ?quick:bool -> unit -> row
(** [A_nuc] solves strictly nonuniform consensus: under a legal
    partitioned Sigma-nu+ history (the faulty side's quorums stay on
    the faulty side, which conditional nonintersection permits), the
    faulty processes decide their own value before crashing — uniform
    agreement is violated while nonuniform agreement holds. This
    certifies the implementation does not secretly solve the stronger
    problem its detector cannot pay for. *)

val e11_model_check : ?quick:bool -> unit -> row
(** Section 6.3 via exhaustive bounded model checking ([lib/mc]): the
    checker verifies every admissible schedule of [A_nuc] on [E_1(3)]
    under the Sigma-nu+ contamination family up to its depth bound
    with zero violations, and {e discovers} the naive Sigma-nu
    baseline's nonuniform-agreement counterexample — certified by
    [Runner.replay] applicability and perpetual-clause legality of the
    sampled detector history — without any hand-written script. *)

val e12_faults : ?quick:bool -> ?seed_base:int -> unit -> row
(** [Sim.Faults] end to end: (a) randomized [A_nuc] runs under the
    full fault menu — message drops, duplication, reordering, and a
    partition that heals before detector stabilization — must keep
    validity and NU agreement (liveness may legitimately degrade —
    nothing retransmits a dropped message; B7 quantifies that), and
    their recorded traces must pass {!Sim.Runner.Make.conformance}
    (replay under the run's own fault spec); (b) the Section 6.3
    dichotomy survives the lossy network model: bounded exploration
    over {!Mc.Menu.lossy} clears [A_nuc] exhaustively while still
    convicting the naive Sigma-nu baseline with a certified
    counterexample (under a loss-budget bound that keeps the deep
    exploration tractable; see [Mc.Make.run]'s [max_drops]). *)

val e13_fuzz : ?quick:bool -> ?seed_base:int -> unit -> row
(** Section 6.3 beyond the model checker's horizon ([lib/explore]):
    randomized schedule exploration on [E_2(5)] — a universe whose
    state space E11's exhaustive search cannot close — finds the
    naive-Sigma-nu nonuniform-agreement violation, shrinks it to at
    most 40 moves, and certifies the shrunk schedule with the same
    replay-applicability + history-legality certificate [lib/mc]
    issues; [A_nuc] survives the identical sampling budget in swarm
    mode (menus, loss budgets, stabilization points and samplers
    rotating per batch). [quick] cuts both budgets to about a
    thousand runs — still enough for the pinned seed to land the
    violation. *)

val e14_dpor : ?quick:bool -> unit -> row
(** Section 6.3 exhaustion under happens-before DPOR
    ([Mc.Make.run ~reduction:Dpor]): (a) the E11 [A_nuc]
    verification pushed deeper (depth 13; [quick] 11) than the
    unreduced checker affords at comparable cost; (b) a differential
    pin at a depth both reductions reach — the reduction is
    state-preserving, so verdict and distinct-state count must match
    the unreduced run exactly, with no more transitions taken; (c)
    the naive Sigma-nu counterexample still found, replayed and
    history-certified with the reduction on. *)

val e16_quorum : ?quick:bool -> ?seed_base:int -> unit -> row
(** Section 6.3 across quorum families ({!Procset.Quorum_family}): for
    each shipped family (majority and weighted on [E_1(3)];
    supermajority [f = 1] and the 2x2 grid on [E_1(4)]), (a) the
    naive Sigma-nu substitution falls to a certified
    nonuniform-agreement violation under the family-shaped
    contamination menu ({!Mc.Menu.contamination} with [?quorum]),
    found by randomized exploration with shrinking, replay and
    history-legality certificates; and (b) [A_nuc] exhausts the same
    menu clean under bounded model checking. One structural finding
    rides along: supermajority at [n = 3, t = 1] has {e no} legal
    contamination channel — every Sigma-nu-legal quorum of its shape
    contains the faulty process — which is why its row runs at
    [n = 4] (see EXPERIMENTS.md, E16). *)

val e_rows : (string * (quick:bool -> seed_base:int -> row)) list
(** Every E-row by its lowercase id ("e1" .. "e16"), in table order:
    the registry behind {!all} and [nuc_cli experiments --only]. The
    deterministic rows ignore [seed_base]. *)

val all : ?quick:bool -> ?seed_base:int -> unit -> row list
(** Every E-row of {!e_rows}, in order. [seed_base] offsets the seed
    lists of the randomized rows (default 0 reproduces the historical
    sweeps). *)

val universe :
  n:int ->
  t:int ->
  bound:int ->
  Procset.Pset.t * Sim.Failure_pattern.t * (Procset.Pid.t -> Consensus.Value.t)
(** [universe ~n ~t ~bound] is the [(faulty, pattern, proposals)]
    every exploration runs in — the E11/E13 rows and [nuc_cli mc] /
    [fuzz]: the last [t] pids are faulty, propose 1 (the others 0)
    and crash at [bound + 1], one step past the explored window, so
    the detector clauses treat them as faulty while every schedule up
    to the bound may still step them. *)

(** {1 Measurement sweeps (B-tables)} *)

type latency_row = {
  algorithm : string;
  n : int;
  t : int;
  runs : int;
  decided : int;  (** runs where all correct processes decided *)
  avg_rounds : float;  (** mean decision round over correct deciders *)
  avg_steps : float;  (** mean simulation steps until full decision *)
  avg_msgs : float;  (** mean messages sent until full decision *)
  avg_hwm : float;
      (** mean per-run mailbox depth high-water mark
          ({!Sim.Runner.metrics}) *)
}

val latency_spec : latency_row Report.Table.t

(** Which algorithm a latency sweep measures. [Family fam] is
    {!Consensus.Mr.family} over a pluggable quorum family, under an
    Omega-only oracle: its waits count distinct senders against the
    family, never the detector's quorum component. *)
type algo =
  | Anuc
  | Mr_majority
  | Mr_sigma
  | Stack
  | Ct
  | Family of Procset.Quorum_family.t

val latency :
  ?faults:Sim.Faults.t -> algo -> n:int -> t:int -> seeds:int list ->
  latency_row
(** B1 and [nuc_cli run]: decision latency of one algorithm in [E_t]
    over random patterns. [Mr_majority] and [Ct] require [t < n/2].
    For [Family fam], surface {!Procset.Quorum_family.validate}
    failures before calling — an ill-fitting family yields honest
    non-decisions, not errors. [faults] (default {!Sim.Faults.none})
    runs every sweep under a network fault spec. *)

type stab_row = {
  stab_time : int;
  s_runs : int;
  s_avg_steps : float;  (** steps to full decision *)
}

val stab_spec : (string * stab_row) Report.Table.t
(** B2 rows, each tagged with its algorithm's name. *)

val stabilization_series :
  algo -> n:int -> t:int -> stabs:int list -> seeds:int list -> stab_row list
(** B2: decision latency as a function of the detectors' stabilization
    time. *)

type fault_row = {
  f_algorithm : string;
  f_drop : float;  (** injected per-message drop probability *)
  f_runs : int;
  f_decided : int;  (** runs fully decided within the step budget *)
  f_budget : int;  (** the non-termination cutoff, in steps *)
  f_avg_steps : float;
      (** mean steps to full decision over decided runs only ([nan]
          when none decided) *)
  f_avg_dropped : float;  (** mean messages dropped by the network per run *)
}

val fault_spec : fault_row Report.Table.t

val fault_latency :
  algo -> n:int -> t:int -> drops:float list -> seeds:int list -> fault_row list
(** B7: liveness degradation under message loss — one row per drop
    probability, same random patterns and oracles as B1. The step
    budget (B1's [max_steps]) is the documented non-termination
    cutoff: a run that has not fully decided within it counts as
    non-terminating ([f_decided] excludes it) and is excluded from
    [f_avg_steps]; no exception escapes. *)

val fault_table : ?quick:bool -> unit -> fault_row list
(** The canonical B7 sweep: [A_nuc] on [E_1(4)] at drop rates
    {0, 0.05, 0.2}. *)

type dag_row = {
  d_steps : int;  (** run length *)
  dag_nodes : int;  (** final DAG size at p0 (after pruning) *)
  spine_len : int;  (** spine length at p0's barrier *)
  extractions_total : int;
  d_msgs : int;  (** messages sent over the run *)
  d_hwm : int;  (** mailbox depth high-water mark over the run *)
  wall_ms : float;  (** wall-clock for the whole run *)
}

val dag_spec : dag_row Report.Table.t

val dag_growth : n:int -> steps_list:int list -> dag_row list
(** B3: transformation cost — DAG size, spine length, extraction count
    and wall time of [T_{Sigma-nu -> Sigma-nu+}] runs of increasing
    length. *)

type ablation_row = {
  variant : string;  (** which [A_nuc] mechanisms are enabled *)
  script_outcome : string;
      (** what the scripted Section 6.3 adversary achieved *)
  script_violated : bool;  (** the script produced a NU-agreement violation *)
  sweep_runs : int;  (** randomized adversarial runs executed *)
  sweep_violations : int;  (** NU-agreement/validity violations among them *)
  a_avg_rounds : float;
      (** mean decision round of correct deciders — the latency cost of
          the enabled mechanisms *)
}

val ablation_spec : ablation_row Report.Table.t

val ablation : ?quick:bool -> ?seed_base:int -> unit -> ablation_row list
(** B5 / mechanism-necessity study: the full [A_nuc] and its three
    ablated variants, each (a) attacked by the scripted Section 6.3
    adversary, and (b) swept over randomized adversarial oracles. The
    paper's claim: both mechanisms are needed for safety in general,
    and they cost extra rounds. Expected shape: the full algorithm and
    single-mechanism variants resist the script (each mechanism blocks
    a different step of it); the doubly-ablated variant falls to it. *)

type mc_row = {
  mc_algorithm : string;
  mc_menu : string;  (** detector-menu family driving the exploration *)
  mc_depth : int;  (** exploration depth bound *)
  mc_stats : Mc.stats;
  mc_outcome : string;
      (** "exhausted, no violation" or the certified counterexample *)
  mc_pass : bool;  (** the run matched its expected verdict *)
}

val mc_spec : mc_row Report.Table.t

val mc_table : ?quick:bool -> unit -> mc_row list
(** B6: model-checker throughput — the two E11 explorations
    (exhaustive [A_nuc] verification; naive-Sigma-nu counterexample
    discovery) with explored/deduplicated state counts and
    states-per-second. *)

type fuzz_row = {
  fz_algorithm : string;
  fz_mode : string;  (** sampler discipline: "uniform" or "swarm" *)
  fz_runs : int;
  fz_steps : int;  (** total simulation steps executed *)
  fz_runs_per_sec : float;
  fz_states : int;  (** distinct canonical states covered *)
  fz_last_new_states : int;
      (** new states in the final batch — the saturation signal *)
  fz_shrink_ratio : float;  (** shrunk/raw move count; [nan] if no cx *)
  fz_outcome : string;
}

val fuzz_spec : fuzz_row Report.Table.t

val fuzz_table : ?quick:bool -> unit -> fuzz_row list
(** B8: randomized-explorer throughput — the two E13 campaigns on
    [E_2(5)] (naive-Sigma-nu violation hunt; [A_nuc] swarm survival)
    with sampling rate, coverage saturation and shrink ratio. *)

type b9_row = {
  b9_workload : string;
  b9_jobs : int;
  b9_wall : float;  (** one coordinating-domain wall-clock read *)
  b9_throughput : float;  (** states/s for the mc workload, runs/s for fuzz *)
  b9_speedup : float;  (** throughput relative to the jobs=1 row *)
  b9_equal : bool;
      (** the sequential-equivalence contract held on this run: same
          verdict and distinct-state count as jobs=1 (mc), or
          byte-identical JSON report (fuzz) *)
}

val b9_spec : b9_row Report.Table.t

val b9_parallel_table : ?quick:bool -> unit -> b9_row list
(** B9: multicore scaling of both exploration engines
    ([Mc.Make.run ~jobs] over the striped shared table;
    [Explore.Make.fuzz ~jobs] batch sharding) at jobs 1/2/4/8 —
    exhaustive [A_nuc] verification on [E_1(3)] measured in states/s,
    property-free fuzz sampling measured in runs/s. Wall times come
    from one monotonic-clock read on the coordinating domain (never a
    per-domain sum), and the [b9_equal] column re-checks the
    determinism contract on every row. Speedups are honest
    measurements of the host: on a single-core container the parallel
    rows report ~1x or below (domain scheduling overhead), which is
    the expected shape there, not a regression. *)

type b10_row = {
  b10_substrate : string;  (** ["sim"] or ["exec(j=<jobs>)"] *)
  b10_clients : int;
  b10_batch : int;
  b10_window : int;  (** per-replica in-flight command cap *)
  b10_slots : int;  (** slots decided at the reference replica *)
  b10_ops : int;  (** commands applied at the reference replica *)
  b10_steps : int;
  b10_wall : float;
  b10_ops_per_sec : float;
  b10_p50 : float;  (** median slot-completion gap, logical ticks *)
  b10_p99 : float;
  b10_divergent : bool;  (** live-replica log divergence (must be false) *)
}

val b10_spec : b10_row Report.Table.t
(** Shared by [bench] and [nuc_cli serve], text and JSON. *)

val b10_row : substrate:string -> Load.config -> Load.outcome -> b10_row
(** One table row from one {!Load} run — exposed so [nuc_cli serve]
    renders the same shape. *)

val b10_serve_table : ?quick:bool -> ?jobs:int -> unit -> b10_row list
(** B10: closed-loop replicated-log serving throughput over
    [Smr.Make_tuned] on [A_nuc], client count x batch size, each
    config run on both substrates — the deterministic {!Sim.Runner}
    and the concurrent {!Sim.Executor} with [jobs] (default 2)
    domains. Latencies are logical-tick slot-completion gaps at the
    reference replica, so the sim rows are load-comparable even
    though its wall-clock means nothing physical; executor wall times
    on a single-core container include domain scheduling overhead,
    the same caveat as B9. *)

type b11_row = {
  b11_algorithm : string;
  b11_reduction : string;  (** ["none"], ["sleep"] or ["dpor"] *)
  b11_depth : int;
  b11_transitions : int;
  b11_states : int;  (** distinct canonical states (reduction-invariant) *)
  b11_dedup : int;
  b11_self_loops : int;
      (** includes the Dpor no-op cache skips, which take no transition *)
  b11_sleep_skipped : int;
  b11_races : int;
  b11_backtracks : int;
  b11_wall : float;
  b11_outcome : string;
  b11_pass : bool;
      (** exhausted with no violation, and distinct states equal to
          the unreduced baseline row *)
}

val b11_spec : b11_row Report.Table.t
(** Shared by [bench] and [nuc_cli mc --json]. *)

val b11_row_of_stats :
  algorithm:string ->
  reduction:Mc.reduction ->
  depth:int ->
  outcome:string ->
  pass:bool ->
  Mc.stats ->
  b11_row
(** One table row from one checker run — exposed so [nuc_cli mc
    --json] renders the same shape. *)

val b11_dpor_table : ?quick:bool -> unit -> b11_row list
(** B11: the E11 [A_nuc] verification at one depth (11; [quick] 7)
    under each reduction — none, sleep sets, happens-before DPOR.
    The pass column re-checks the state-preservation contract
    against the unreduced row: same verdict, same distinct-state
    count; the reductions may only differ in transitions taken. *)

type b12_row = {
  b12_depth : int;
  b12_states : int;  (** distinct configs retained (equal in both pipelines) *)
  b12_heap_bytes : float;
      (** retained bytes per state, config-keyed memo (heap graphs) *)
  b12_packed_bytes : float;
      (** retained bytes per state, packed codec (bytes keys + pools) *)
  b12_ratio : float;  (** heap / packed *)
  b12_pass : bool;  (** same state count and ratio >= 5.0 *)
}

val b12_spec : b12_row Report.Table.t

val b12_codec_table : ?quick:bool -> unit -> b12_row list
(** B12: per-state retained memory of the two canonical-state
    representations over the same distinct-state set (a dedup walk of
    the E_1(3) universe at depths 7 and 9; [quick] 7 only). Pipeline
    A retains each distinct config as its heap graph (the pre-codec
    memo layout, substructure sharing included); pipeline B retains
    one packed byte string per config plus the two interning pools
    ({!Mc.Make.Packed}). Footprints are [Gc.live_words] deltas with
    the dedup table dropped before measuring, so the numbers isolate
    exactly the representation the codec changes — the hashed-key
    wrappers, hashtable bindings and coverage entries are identical
    in both memo layouts. The acceptance bar is a >= 5x reduction. *)

type b13_row = {
  b13_family : string;
  b13_n : int;
  b13_t : int;
  b13_minq : int;  (** smallest quorum cardinality, [-1] if none *)
  b13_resilience : int;  (** {!Procset.Quorum_family.resilience} *)
  b13_runs : int;
  b13_live : int;  (** runs whose correct set is itself a quorum *)
  b13_decided : int;  (** runs where every correct process decided *)
  b13_avg_rounds : float;  (** mean deciding round over decided runs *)
  b13_avg_steps : float;  (** mean steps to global decision *)
  b13_pass : bool;  (** decided = live, run by run *)
}
(** One row of the quorum-family latency / resilience trade-off. *)

val b13_spec : b13_row Report.Table.t

val b13_quorum_table : ?quick:bool -> ?seed_base:int -> unit -> b13_row list
(** B13: {!Consensus.Mr.family} under random crash patterns, one row
    per (family, n, t) point. Liveness is structural: a run decides
    iff its correct set is a quorum of the family
    ({!Procset.Quorum_family.validate}), and the pass column checks
    that equivalence on every run — blocked runs are executed against
    their full step budget, not predicted. The sweep exhibits the
    trade-off: majority maximizes resilience at [n = 5]; weighted
    votes buy smaller quorums (latency) at the price of a power
    concentration that dies with its pivot; the 2x2 grid survives any
    single crash but no double crash leaves a full row and column.
    [quick] cuts the seed list from 20 to 6. *)

type b14_row = {
  b14_read_mode : string;  (** ["log"] or ["snapshot"] *)
  b14_jobs : int;
  b14_slots : int;  (** slots decided at the reference replica *)
  b14_ops : int;  (** commands applied (write path) *)
  b14_ops_per_sec : float;
  b14_reads : int;  (** read queries served *)
  b14_reads_per_sec : float;
  b14_read_p50_us : float;  (** median per-read latency, microseconds *)
  b14_read_p99_us : float;
  b14_stale_max : int;
      (** worst read staleness in decided slots ([-1]: no snapshot
          read served) *)
  b14_stale_bound : int;  (** declared bound, [publish_every - 1] *)
  b14_snapshots : int;  (** snapshots published *)
  b14_lock_ops : int;  (** transport mutex acquisitions *)
  b14_cas_retries : int;  (** failed ring CAS attempts *)
  b14_sync_ops : int;  (** executor pool claims + joins *)
  b14_divergent : bool;  (** must be false *)
  b14_stale_ok : bool;  (** [stale_max <= stale_bound] — must be true *)
}
(** One row of the snapshot-vs-log serving matrix. *)

val b14_spec : b14_row Report.Table.t
(** Shared by [bench] and [nuc_cli serve]; the text [ok] column is
    [stale_ok && not divergent], the JSON carries both. *)

val b14_row : jobs:int -> Load.config -> Load.outcome -> b14_row
(** Project a {!Load} outcome onto a B14 row (shared with
    [nuc_cli serve] so CLI rows match bench rows). *)

val b14_config :
  read_mode:Load.read_mode ->
  reads:int ->
  target_slots:int ->
  max_steps:int ->
  Load.config
(** The {!b10_config} write workload (64 clients, batch 1) with a
    read workload riding along. *)

val b14_ring_table : ?quick:bool -> unit -> b14_row list
(** B14: the serving workload on the concurrent executor across
    \{log, snapshot\} read modes x jobs (\[1\] quick, \[1; 2\]
    full). The contention columns are the point: at any job count
    the ring's [lock_ops] is only its overflow spills (0 on this
    crash-free workload) and [sync_ops] counts rounds, not steps —
    honest single-core evidence that the hot path holds no lock and
    no shared per-step atomic. Snapshot rows must show [stale_ok]
    under the declared bound. *)

val metrics_spec : Sim.Runner.metrics Report.Table.t
(** The [run_metrics] object: the counters of one instrumented
    reference [A_nuc] run (n=4, failure-free). *)

val micro_spec : (string * float option) Report.Table.t
(** B4 rows: bechamel ns per run of the substrate hot paths, [None]
    when the fit failed. *)

(** {1 The bench document} *)

type section = {
  key : string;  (** top-level key in the BENCH_*.json document *)
  title : string;  (** the banner printed above the section *)
  run : smoke:bool -> Report.t;
      (** compute the section, print it to stdout, return its JSON;
          [smoke] cuts every sweep to CI size *)
}

val sections : section list
(** Every section of [bench/main.exe], in print and document order:
    the E-table, B1-B14 (B4 after B14) and the run metrics. Each table
    section is one column spec above plus the sweep that fills it;
    adding a table is adding its spec and one entry here. *)

val document : (string * Report.t) list -> Report.t
(** [document results] is the BENCH_*.json object: [schema_version]
    and [generated_at_unix], then [results] (one [(key, json)] per
    section). *)
