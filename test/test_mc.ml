(* Tests for the bounded model checker (lib/mc): menu admissibility,
   the two E11 explorations (exhaustive A_nuc verification and
   discovery of the Section 6.3 counterexample for the naive Sigma-nu
   baseline), and the soundness of the pruning machinery. *)
open Procset

module M_naive = Mc.Make (Consensus.Mr.With_quorum)
module M_anuc = Mc.Make (Core.Anuc)

(* The E11 universe: three processes, p2 allowed to be faulty, its
   crash scheduled past every depth bound we explore. *)
let n = 3
let faulty = Pset.singleton 2
let proposals p = if Pset.mem p faulty then 1 else 0
let pattern ~depth = Sim.Failure_pattern.make ~n ~crashes:[ (2, depth + 1) ]

(* -------------------------------------------------------------- *)
(* Menu admissibility                                             *)
(* -------------------------------------------------------------- *)

let test_menus_admissible () =
  List.iter
    (fun menu ->
      match Mc.Menu.validate ~pattern:(pattern ~depth:40) menu with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "menu %s must be admissible: %s" menu.Mc.Menu.name e)
    [
      Mc.Menu.omega_sigma_nu ~n ~faulty;
      Mc.Menu.omega_sigma_nu_plus ~n ~faulty;
      Mc.Menu.omega_sigma ~n ~faulty;
      Mc.Menu.contamination ~n ~faulty ();
      Mc.Menu.contamination ~plus:true ~n ~faulty ();
      Mc.Menu.lossy ~n ~faulty ();
      Mc.Menu.lossy ~plus:true ~n ~faulty ();
      Mc.Menu.leader_only ~n ~faulty;
      Mc.Menu.suspects ~n ~faulty;
    ]

let test_bogus_menu_rejected () =
  (* per-process singleton quorums at correct processes violate the
     intersection clause of every Sigma variant *)
  let bogus =
    {
      Mc.Menu.name = "bogus singletons";
      kind = Mc.Menu.Sigma_nu;
      values =
        (fun p ->
          [
            Sim.Fd_value.Pair
              (Sim.Fd_value.Leader p, Sim.Fd_value.Quorum (Pset.singleton p));
          ]);
      lossy = false;
    }
  in
  match Mc.Menu.validate ~pattern:(pattern ~depth:40) bogus with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "disjoint correct quorums must be rejected"

(* Family-parameterized contamination/lossy menus must be admissible
   too — including at shapes the unparameterized menu never sees
   (grid:2x2 and super:1 need n = 4). *)
let test_family_menus_admissible () =
  let check ~n ~faulty ~crashes fam =
    let pattern = Sim.Failure_pattern.make ~n ~crashes in
    List.iter
      (fun menu ->
        match Mc.Menu.validate ~pattern menu with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "menu %s (n=%d) must be admissible: %s"
            menu.Mc.Menu.name n e)
      [
        Mc.Menu.contamination ~quorum:fam ~n ~faulty ();
        Mc.Menu.contamination ~plus:true ~quorum:fam ~n ~faulty ();
        Mc.Menu.lossy ~quorum:fam ~n ~faulty ();
        Mc.Menu.lossy ~plus:true ~quorum:fam ~n ~faulty ();
      ]
  in
  let faulty3 = Pset.singleton 2 and crashes3 = [ (2, 41) ] in
  List.iter
    (check ~n:3 ~faulty:faulty3 ~crashes:crashes3)
    [
      Quorum_family.majority;
      Quorum_family.supermajority ~f:1;
      Quorum_family.weighted ~weights:[ 2; 1; 1 ];
    ];
  let faulty4 = Pset.singleton 3 and crashes4 = [ (3, 41) ] in
  List.iter
    (check ~n:4 ~faulty:faulty4 ~crashes:crashes4)
    [
      Quorum_family.grid ~rows:2 ~cols:2 ();
      Quorum_family.supermajority ~f:1;
    ]

(* Byte-compat pin for the menu constructions: [?quorum:None] must
   keep the exact pre-family values (c0 pinned to the correct set,
   everyone else switching between it and {p} ∪ F), and the majority
   family must offer exactly the documented owner-added min-quorums
   plus the escape. A drift here silently changes every E11/E16
   verdict and the mc seeds, so the lists are hard-coded. *)
let test_menu_values_pinned () =
  let expect_values menu p expected =
    let got =
      List.map
        (fun v ->
          match v with
          | Sim.Fd_value.Pair (Sim.Fd_value.Leader l, Sim.Fd_value.Quorum q) ->
            Alcotest.(check int)
              (Printf.sprintf "%s: leader at p%d is the owner"
                 menu.Mc.Menu.name p)
              p l;
            Pset.to_string q
          | v ->
            Alcotest.failf "%s: unexpected value shape %s" menu.Mc.Menu.name
              (Format.asprintf "%a" Sim.Fd_value.pp v))
        (menu.Mc.Menu.values p)
    in
    Alcotest.(check (list string))
      (Printf.sprintf "%s: values at p%d" menu.Mc.Menu.name p)
      (List.map Pset.to_string expected)
      got
  in
  let s = Pset.of_list in
  let plain = Mc.Menu.contamination ~n ~faulty () in
  expect_values plain 0 [ s [ 0; 1 ] ];
  expect_values plain 1 [ s [ 0; 1 ]; s [ 1; 2 ] ];
  expect_values plain 2 [ s [ 2 ] ];
  let maj =
    Mc.Menu.contamination ~quorum:Quorum_family.majority ~n ~faulty ()
  in
  expect_values maj 0 [ s [ 0; 1 ]; s [ 0; 2 ] ];
  expect_values maj 1 [ s [ 0; 1 ]; s [ 1; 2 ] ];
  expect_values maj 2 [ s [ 2 ] ];
  (* super:1 at n = 3 has min-quorum {0,1,2} ⊇ everything; the escape
     stays legal (the only min-quorum touches F), so correct processes
     see the full set and their escape — the shape that closes the
     contamination channel (see EXPERIMENTS.md E16). *)
  let sup =
    Mc.Menu.contamination ~quorum:(Quorum_family.supermajority ~f:1) ~n
      ~faulty ()
  in
  expect_values sup 0 [ s [ 0; 1; 2 ]; s [ 0; 2 ] ];
  expect_values sup 1 [ s [ 0; 1; 2 ]; s [ 1; 2 ] ];
  expect_values sup 2 [ s [ 2 ] ]

(* -------------------------------------------------------------- *)
(* Exhaustive A_nuc verification (the E11 'verify' half)           *)
(* -------------------------------------------------------------- *)

let anuc_report ~depth =
  let pattern = pattern ~depth in
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let props =
    M_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
      ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_anuc.decided_stop ~decision:Core.Anuc.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  M_anuc.run ~n ~menu ~depth ~inputs:proposals ~props ~stop ()

let test_anuc_exhaustive_no_violation () =
  let r = anuc_report ~depth:8 in
  (match r.M_anuc.violation with
  | None -> ()
  | Some cx ->
    Alcotest.failf "A_nuc must survive exhaustive exploration: %s (%s)"
      cx.M_anuc.cx_property cx.M_anuc.cx_detail);
  Alcotest.(check bool) "exploration not truncated" false
    r.M_anuc.stats.Mc.truncated;
  Alcotest.(check bool) "explored a nontrivial space" true
    (r.M_anuc.stats.Mc.distinct_states > 10_000)

(* Same verification over lossy links: the adversary may also drop or
   stall in-flight messages, and A_nuc still has no safety violation
   within the (smaller, because the space is much larger) bound. *)
let test_anuc_lossy_exhaustive_no_violation () =
  let depth = 6 in
  let pattern = pattern ~depth in
  let menu = Mc.Menu.lossy ~plus:true ~n ~faulty () in
  let props =
    M_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
      ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_anuc.decided_stop ~decision:Core.Anuc.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  let r = M_anuc.run ~n ~menu ~depth ~inputs:proposals ~props ~stop () in
  (match r.M_anuc.violation with
  | None -> ()
  | Some cx ->
    Alcotest.failf "A_nuc must survive lossy exploration: %s (%s)"
      cx.M_anuc.cx_property cx.M_anuc.cx_detail);
  Alcotest.(check bool) "exploration not truncated" false
    r.M_anuc.stats.Mc.truncated;
  (* the drop moves genuinely enlarge the space beyond the loss-free
     menu at the same depth *)
  let loss_free =
    M_anuc.run ~n
      ~menu:(Mc.Menu.contamination ~plus:true ~n ~faulty ())
      ~depth ~inputs:proposals ~props ~stop ()
  in
  Alcotest.(check bool) "lossy space strictly larger" true
    (r.M_anuc.stats.Mc.distinct_states
    > loss_free.M_anuc.stats.Mc.distinct_states)

(* A drop budget of zero switches the drop alphabet off entirely: the
   lossy menu degenerates, state for state and transition for
   transition, to the loss-free contamination exploration. *)
let test_lossy_zero_budget_is_loss_free () =
  let depth = 5 in
  let pattern = pattern ~depth in
  let props =
    M_naive.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let run menu ~max_drops =
    M_naive.run ~max_drops ~n ~menu ~depth ~inputs:proposals ~props ()
  in
  let budgetless =
    run (Mc.Menu.lossy ~n ~faulty ()) ~max_drops:0
  in
  let loss_free = run (Mc.Menu.contamination ~n ~faulty ()) ~max_drops:max_int in
  Alcotest.(check int) "same distinct states"
    loss_free.M_naive.stats.Mc.distinct_states
    budgetless.M_naive.stats.Mc.distinct_states;
  Alcotest.(check int) "same transitions"
    loss_free.M_naive.stats.Mc.transitions
    budgetless.M_naive.stats.Mc.transitions;
  Alcotest.(check bool) "same verdict" true
    (Option.is_none budgetless.M_naive.violation
    = Option.is_none loss_free.M_naive.violation)

(* -------------------------------------------------------------- *)
(* Counterexample discovery for the naive baseline                 *)
(* -------------------------------------------------------------- *)

let naive_report ~depth =
  let pattern = pattern ~depth in
  let menu = Mc.Menu.contamination ~n ~faulty () in
  let props =
    M_naive.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_naive.decided_stop ~decision:Consensus.Mr.With_quorum.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  M_naive.run ~n ~menu ~depth ~inputs:proposals ~props ~stop ()

let test_naive_counterexample_found_and_certified () =
  let depth = 32 in
  let r = naive_report ~depth in
  match r.M_naive.violation with
  | None ->
    Alcotest.fail
      "the model checker must find the Sec-6.3 contamination violation"
  | Some cx ->
    Alcotest.(check string)
      "the violated property is nonuniform agreement" "nonuniform agreement"
      cx.M_naive.cx_property;
    (* independent certification: the schedule replays on the real
       runner and reproduces the split decisions... *)
    (match M_naive.replay_counterexample ~n ~inputs:proposals cx with
    | Error e -> Alcotest.failf "counterexample must replay: %s" e
    | Ok states ->
      let decisions =
        List.map
          (fun p -> Consensus.Mr.With_quorum.decision states.(p))
          [ 0; 1 ]
      in
      (match decisions with
      | [ Some a; Some b ] when a <> b -> ()
      | _ ->
        Alcotest.fail
          "replaying the schedule must reproduce the split correct \
           decisions"));
    (* ...and the detector values the schedule consumed are legal for
       (Omega, Sigma-nu) on this pattern *)
    (match
       Mc.history_legal ~kind:Mc.Menu.Sigma_nu ~pattern:(pattern ~depth)
         cx.M_naive.cx_samples
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "sampled history must be legal: %s" e)

(* -------------------------------------------------------------- *)
(* Pruning soundness, pinned on a small case                       *)
(* -------------------------------------------------------------- *)

(* Sleep sets and memoization prune transitions, never states: the
   same depth-5 exploration with everything disabled walks the full
   schedule tree (15x the transitions) yet sees exactly the same
   distinct states and reaches the same verdict. *)
let test_pruning_reduces_without_changing_verdict () =
  let depth = 5 in
  let pattern = pattern ~depth in
  let menu = Mc.Menu.contamination ~n ~faulty () in
  let props =
    M_naive.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let run ~reduction ~dedup =
    M_naive.run ~reduction ~dedup ~n ~menu ~depth ~inputs:proposals ~props ()
  in
  let pruned = run ~reduction:Mc.Sleep_sets ~dedup:true in
  let bare = run ~reduction:Mc.No_reduction ~dedup:false in
  Alcotest.(check bool)
    "same verdict" true
    (Option.is_none pruned.M_naive.violation
    = Option.is_none bare.M_naive.violation);
  Alcotest.(check int) "same distinct states"
    bare.M_naive.stats.Mc.distinct_states
    pruned.M_naive.stats.Mc.distinct_states;
  Alcotest.(check bool) "pruning is load-bearing" true
    (pruned.M_naive.stats.Mc.transitions
    < bare.M_naive.stats.Mc.transitions);
  Alcotest.(check bool) "sleep sets fired" true
    (pruned.M_naive.stats.Mc.sleep_skipped > 0);
  Alcotest.(check bool) "memoization fired" true
    (pruned.M_naive.stats.Mc.dedup_hits > 0);
  (* dedup_hits counts memoization absorptions only: with dedup off
     nothing is absorbed, and self-loop skips live in their own
     counter *)
  Alcotest.(check int) "dedup off absorbs nothing" 0
    bare.M_naive.stats.Mc.dedup_hits;
  (* dedup load-bearing: strictly fewer states than transitions *)
  Alcotest.(check bool) "deduped states < explored transitions" true
    (pruned.M_naive.stats.Mc.distinct_states
    < pruned.M_naive.stats.Mc.transitions)

(* -------------------------------------------------------------- *)
(* Stats accounting invariants                                     *)
(* -------------------------------------------------------------- *)

(* Every explored edge is accounted for exactly once: it either
   reaches a fresh canonical state (distinct_states - 1 of those,
   the root being free), is absorbed by memoization (dedup_hits), or
   is a self-loop (self_loops). The only leak is a revisit that must
   be *re-expanded* because the stored entry does not dominate the
   current (budget, sleep set) pair — so on an automaton where every
   path to a state has the same length, with sleep sets off, the
   conservation law is exact. *)

(* A bounded monotone counter per process: each non-saturated step
   increments the local counter, so any path to the state vector
   (c_0, .., c_{n-1}) has length exactly sum c_i and every revisit
   carries the same remaining depth budget. At the cap a step is a
   pure self-loop. *)
module Toy_counter = struct
  type input = unit
  type state = int
  type message = unit

  let cap = 3
  let name = "toy-counter"
  let initial ~n:_ ~self:_ () = 0
  let step ~n:_ ~self:_ st _received _d = (min cap (st + 1), [])
  let pp_message fmt () = Format.pp_print_string fmt "()"
  let equal_message () () = true
end

module M_toy = Mc.Make (Toy_counter)

let toy_menu =
  (* one detector value per process: the toy automaton ignores it, so
     the move alphabet is exactly one lambda step per process *)
  {
    Mc.Menu.name = "toy single-value";
    kind = Mc.Menu.Sigma_nu;
    values = (fun _ -> [ Sim.Fd_value.Leader 0 ]);
    lossy = false;
  }

let toy_run ~depth =
  M_toy.run ~reduction:Mc.No_reduction ~n:3 ~menu:toy_menu ~depth
    ~inputs:(fun _ -> ())
    ~props:[] ()

let toy_conservation (s : Mc.stats) =
  Alcotest.(check int)
    "transitions = dedup_hits + self_loops + (distinct_states - 1)"
    s.Mc.transitions
    (s.Mc.dedup_hits + s.Mc.self_loops + (s.Mc.distinct_states - 1))

(* At a depth past the longest simple path (3 * cap), the space is
   saturated: every reachable state visited, nothing cut by the depth
   bound, and the edge conservation law holds exactly. *)
let test_toy_conservation_at_saturation () =
  let r = toy_run ~depth:((3 * Toy_counter.cap) + 1) in
  let s = r.M_toy.stats in
  toy_conservation s;
  Alcotest.(check int) "all (cap+1)^3 states reached" 64 s.Mc.distinct_states;
  Alcotest.(check int) "no state cut by the depth bound" 0 s.Mc.depth_leaves;
  Alcotest.(check bool) "not truncated" false s.Mc.truncated;
  Alcotest.(check bool) "the cap produces self-loops" true
    (s.Mc.self_loops > 0)

(* One step short of saturation: the all-capped state is unreachable,
   the frontier states are depth leaves — and the conservation law
   still balances, because depth leaves are ordinary fresh states. *)
let test_toy_conservation_below_saturation () =
  let r = toy_run ~depth:((3 * Toy_counter.cap) - 1) in
  let s = r.M_toy.stats in
  toy_conservation s;
  Alcotest.(check int) "all but the all-capped state reached" 63
    s.Mc.distinct_states;
  Alcotest.(check bool) "frontier cut by the depth bound" true
    (s.Mc.depth_leaves > 0)

(* On a real exploration (paths of different lengths reach the same
   state, sleep sets on) re-expanded revisits turn the equality into
   an inequality: every edge still lands in exactly one bucket or is
   a re-expansion, never double-counted. *)
let test_real_run_conservation_inequality () =
  let r = naive_report ~depth:8 in
  let s = r.M_naive.stats in
  Alcotest.(check bool)
    "transitions >= dedup_hits + self_loops + (distinct_states - 1)" true
    (s.Mc.transitions
    >= s.Mc.dedup_hits + s.Mc.self_loops + (s.Mc.distinct_states - 1))

(* -------------------------------------------------------------- *)
(* Randomized explorer cross-check (lib/explore)                   *)
(* -------------------------------------------------------------- *)

module Ex_naive = Explore.Make (Consensus.Mr.With_quorum)

(* The fuzzer and the model checker must agree where their horizons
   overlap: at n = 3 the fuzzer finds, shrinks and certifies the
   Section 6.3 contamination violation, and an exhaustive Mc run of
   the same universe at exactly the shrunk schedule's depth confirms
   a violation of the same property really is in that space. *)
let test_fuzz_shrink_confirmed_by_mc () =
  let max_steps = 18 * 3 in
  let pattern =
    Sim.Failure_pattern.make ~n ~crashes:[ (2, max_steps + 1) ]
  in
  let menu = Mc.Menu.contamination ~n ~faulty () in
  let props =
    Ex_naive.M.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    Ex_naive.M.decided_stop ~decision:Consensus.Mr.With_quorum.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  let r =
    Ex_naive.fuzz ~algo:"naive-sn" ~max_steps ~stop
      ~decided:(fun st -> Consensus.Mr.With_quorum.decision st <> None)
      ~seed:1 ~runs:200 ~n ~menu ~pattern ~inputs:proposals ~props ()
  in
  match r.Ex_naive.violation with
  | None ->
    Alcotest.fail "seed 1 must land the n = 3 violation within 200 runs"
  | Some v ->
    Alcotest.(check string) "the violated property is nonuniform agreement"
      "nonuniform agreement" v.Ex_naive.v_property;
    Alcotest.(check bool) "shrunk schedule certified by replay" true
      v.Ex_naive.v_replay_ok;
    Alcotest.(check bool) "shrunk history passes the perpetual clauses" true
      v.Ex_naive.v_history_ok;
    Alcotest.(check bool) "shrinking shortened the schedule" true
      (List.length v.Ex_naive.v_shrunk < List.length v.Ex_naive.v_moves);
    (* the shrinker's drain-skipping pass works in the unrestricted
       indexed space, so the shrunk schedule may be shorter than any
       counterexample the checker's FIFO exploration contains — the
       cross-check runs the checker at its own certified horizon and
       demands agreement on the verdict and the violated property *)
    (match (naive_report ~depth:32).M_naive.violation with
    | None ->
      Alcotest.fail
        "Mc.Make.run must confirm the violation in the same universe"
    | Some cx ->
      Alcotest.(check string)
        "model checker confirms the same property" v.Ex_naive.v_property
        cx.M_naive.cx_property;
      Alcotest.(check bool)
        "shrunk fuzz schedule no longer than the checker's" true
        (List.length v.Ex_naive.v_shrunk <= List.length cx.M_naive.cx_moves))

(* -------------------------------------------------------------- *)
(* Parallel driver: sequential equivalence, interning, wall clock  *)
(* -------------------------------------------------------------- *)

(* Every job count must reproduce the order-independent observables —
   the verdict, the distinct-state count and the decided-leaf count —
   per menu family, at a pinned depth. The pins were recorded from the
   dedicated sequential walker the engine used to keep for jobs = 1,
   so they stay an oracle independent of the task-queue engine.
   Interleaving-dependent counters (transitions, dedup_hits,
   max_depth) may legitimately differ across job counts. *)
let test_parallel_matches_sequential () =
  let depth = 5 in
  let pattern = pattern ~depth in
  let props =
    M_naive.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_naive.decided_stop ~decision:Consensus.Mr.With_quorum.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  List.iter
    (fun ((menu : Mc.Menu.t), pin) ->
      List.iter
        (fun jobs ->
          let r =
            M_naive.run ~jobs ~n ~menu ~depth ~inputs:proposals ~props ~stop
              ~max_drops:1 ()
          in
          Tutil.check_mc_pin
            ~tag:(Printf.sprintf "%s, jobs=%d: %s" menu.Mc.Menu.name jobs)
            pin
            ~violated:(Option.is_some r.M_naive.violation)
            r.M_naive.stats)
        [ 1; 3 ])
    [
      (Mc.Menu.contamination ~n ~faulty (), (true, 601, 0));
      (Mc.Menu.lossy ~n ~faulty (), (true, 1377, 0));
      (Mc.Menu.omega_sigma_nu ~n ~faulty, (true, 2085, 0));
      (Mc.Menu.omega_sigma ~n ~faulty, (true, 2159, 0));
    ]

(* The same contract for A_nuc under the plus family — the other
   automaton the experiments drive in parallel. *)
let test_parallel_matches_sequential_anuc () =
  let depth = 6 in
  let pattern = pattern ~depth in
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let props =
    M_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
      ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_anuc.decided_stop ~decision:Core.Anuc.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  List.iter
    (fun jobs ->
      let r =
        M_anuc.run ~jobs ~n ~menu ~depth ~inputs:proposals ~props ~stop ()
      in
      Tutil.check_mc_pin
        ~tag:(Printf.sprintf "jobs=%d: %s" jobs)
        (true, 3392, 0)
        ~violated:(Option.is_some r.M_anuc.violation)
        r.M_anuc.stats)
    [ 1; 4 ]

(* A violation found by the parallel driver is a real one: at the
   certified horizon the parallel run still convicts the naive
   baseline of the same property, and its counterexample passes the
   same independent replay certificate. (The *schedule* may differ
   from the sequential one — first insertion wins — but the property
   and the certificates may not.) *)
let test_parallel_cx_certified () =
  let depth = 32 in
  let pattern = pattern ~depth in
  let menu = Mc.Menu.contamination ~n ~faulty () in
  let props =
    M_naive.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_naive.decided_stop ~decision:Consensus.Mr.With_quorum.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  let r =
    M_naive.run ~jobs:4 ~n ~menu ~depth ~inputs:proposals ~props ~stop ()
  in
  match r.M_naive.violation with
  | None -> Alcotest.fail "parallel run must find the Sec-6.3 violation"
  | Some cx ->
    Alcotest.(check string) "same property as the sequential verdict"
      "nonuniform agreement" cx.M_naive.cx_property;
    (match M_naive.replay_counterexample ~n ~inputs:proposals cx with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "parallel counterexample must replay: %s" e);
    (match
       Mc.history_legal ~kind:Mc.Menu.Sigma_nu ~pattern cx.M_naive.cx_samples
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "sampled history must be legal: %s" e)

(* Hash-collision safety of the interned tables: [hash_param 150 600]
   traverses at most 150 meaningful words, so int lists longer than
   that differing only at the tail collide by construction. The
   cached-hash equality must fall through to the structural backstop
   and keep the keys distinct — in the single-domain table and in the
   striped shared one. *)
module L_key = struct
  type t = int list

  let equal = List.equal Int.equal
end

module L_tbl = Mc.Intern.Table (L_key)
module L_striped = Mc.Intern.Striped (L_key)

let test_hash_collision_not_conflated () =
  let base = List.init 400 (fun i -> i) in
  let a = base @ [ 1 ] and b = base @ [ 2 ] in
  let hash = Hashtbl.hash_param 150 600 in
  Alcotest.(check int) "the crafted collision is real" (hash a) (hash b);
  Alcotest.(check bool) "the values are structurally distinct" false
    (L_key.equal a b);
  let h = Mc.Intern.hashed hash in
  let t = L_tbl.create 16 in
  L_tbl.add t (h a) "a";
  L_tbl.add t (h b) "b";
  Alcotest.(check int) "both keys live in the table" 2 (L_tbl.length t);
  Alcotest.(check (option string)) "a retrievable" (Some "a")
    (L_tbl.find_opt t (h a));
  Alcotest.(check (option string)) "b retrievable" (Some "b")
    (L_tbl.find_opt t (h b));
  let st = L_striped.create ~stripes:4 16 in
  let ida, fresh_a = L_striped.intern st (h a) (fun id -> id) in
  let idb, fresh_b = L_striped.intern st (h b) (fun id -> id) in
  Alcotest.(check bool) "a freshly interned" true fresh_a;
  Alcotest.(check bool) "b freshly interned" true fresh_b;
  Alcotest.(check bool) "distinct compact ids" true (ida <> idb);
  Alcotest.(check int) "striped watermark counts both" 2
    (L_striped.length st);
  let ida', fresh_a' = L_striped.intern st (h a) (fun id -> id) in
  Alcotest.(check bool) "re-intern is a hit" false fresh_a';
  Alcotest.(check int) "re-intern returns the original id" ida ida'

(* Wall-clock accounting under parallelism: [wall_seconds] is one
   monotonic-clock read on the coordinating domain, never a sum of
   per-domain spans. On a many-core host the jobs=4 run is faster; on
   a single-core host it pays scheduling overhead — but a *summed*
   accounting would report ~4x the sequential wall, which this bound
   rejects on any host. *)
let test_parallel_wall_not_summed () =
  let depth = 8 in
  let pattern = pattern ~depth in
  let menu = Mc.Menu.contamination ~n ~faulty () in
  let props =
    M_naive.consensus_props ~decision:Consensus.Mr.With_quorum.decision
      ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let run ~jobs =
    M_naive.run ~jobs ~n ~menu ~depth ~inputs:proposals ~props ()
  in
  let w1 = (run ~jobs:1).M_naive.stats.Mc.wall_seconds in
  let w4 = (run ~jobs:4).M_naive.stats.Mc.wall_seconds in
  Alcotest.(check bool) "wall clocks are positive" true (w1 > 0. && w4 > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "jobs=4 wall (%.3fs) is not a per-domain sum of the \
                     jobs=1 wall (%.3fs)" w4 w1)
    true
    (w4 < (2. *. w1) +. 0.5)

(* -------------------------------------------------------------- *)
(* User invariants and stop states                                 *)
(* -------------------------------------------------------------- *)

(* A user invariant that fails immediately is reported with the
   (empty) schedule that reaches its state. *)
let test_user_invariant_violation_surfaces () =
  let menu = Mc.Menu.contamination ~n ~faulty () in
  let props =
    [
      M_naive.invariant ~name:"no process in round 2" (fun st ->
          if
            List.exists
              (fun p -> Consensus.Mr.With_quorum.round (st p) >= 2)
              [ 0; 1; 2 ]
          then Error "some process reached round 2"
          else Ok ());
    ]
  in
  let r = M_naive.run ~n ~menu ~depth:40 ~inputs:proposals ~props () in
  match r.M_naive.violation with
  | Some cx ->
    Alcotest.(check string) "names the invariant" "no process in round 2"
      cx.M_naive.cx_property
  | None -> Alcotest.fail "round 2 is reachable within depth 40"

(* E11 end to end, exactly as the experiments table runs it. *)
let test_e11_quick_passes () =
  let row = Experiments.e11_model_check ~quick:true () in
  if not row.Experiments.pass then
    Alcotest.failf "E11 failed: %s" row.Experiments.measured

(* E12 end to end: faulty-network runs keep safety, and the lossy
   model-check halves agree with E11's verdicts. *)
let test_e12_quick_passes () =
  let row = Experiments.e12_faults ~quick:true () in
  if not row.Experiments.pass then
    Alcotest.failf "E12 failed: %s" row.Experiments.measured

let () =
  Alcotest.run "mc"
    [
      ( "menus",
        [
          Alcotest.test_case "families admissible" `Quick
            test_menus_admissible;
          Alcotest.test_case "bogus menu rejected" `Quick
            test_bogus_menu_rejected;
          Alcotest.test_case "quorum-family menus admissible" `Quick
            test_family_menus_admissible;
          Alcotest.test_case "menu values pinned (pre-family compat)" `Quick
            test_menu_values_pinned;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "A_nuc exhaustive, no violation" `Quick
            test_anuc_exhaustive_no_violation;
          Alcotest.test_case "A_nuc lossy exhaustive, no violation" `Quick
            test_anuc_lossy_exhaustive_no_violation;
          Alcotest.test_case "naive-Sn counterexample certified" `Quick
            test_naive_counterexample_found_and_certified;
          Alcotest.test_case "user invariant surfaces" `Quick
            test_user_invariant_violation_surfaces;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "prunes transitions, not states" `Quick
            test_pruning_reduces_without_changing_verdict;
          Alcotest.test_case "zero drop budget is loss-free" `Quick
            test_lossy_zero_budget_is_loss_free;
        ] );
      ( "stats",
        [
          Alcotest.test_case "edge conservation at saturation" `Quick
            test_toy_conservation_at_saturation;
          Alcotest.test_case "edge conservation below saturation" `Quick
            test_toy_conservation_below_saturation;
          Alcotest.test_case "conservation inequality on real runs" `Quick
            test_real_run_conservation_inequality;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "jobs>1 matches sequential (naive, 4 menus)"
            `Quick test_parallel_matches_sequential;
          Alcotest.test_case "jobs>1 matches sequential (A_nuc)" `Quick
            test_parallel_matches_sequential_anuc;
          Alcotest.test_case "parallel counterexample certified" `Quick
            test_parallel_cx_certified;
          Alcotest.test_case "hash collisions not conflated" `Quick
            test_hash_collision_not_conflated;
          Alcotest.test_case "wall clock not summed across domains" `Quick
            test_parallel_wall_not_summed;
        ] );
      ( "fuzz-cross-check",
        [
          Alcotest.test_case "fuzzed+shrunk violation confirmed by mc" `Quick
            test_fuzz_shrink_confirmed_by_mc;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "E11 (quick) passes" `Quick test_e11_quick_passes;
          Alcotest.test_case "E12 (quick) passes" `Quick test_e12_quick_passes;
        ] );
    ]
