(* Tests for the DAG-of-samples machinery: Dag semantics, the A_DAG
   algorithm (the Section 4 observations as finite-run checks), and
   the canonical path simulation. *)
open Procset
module Dag = Dagsim.Dag
module Node = Dagsim.Node

let node owner index value = { Node.owner; index; value }
let q l = Sim.Fd_value.Quorum (Pset.of_list l)

(* -------------------------------------------------------------- *)
(* Dag container semantics                                         *)
(* -------------------------------------------------------------- *)

let test_dag_build () =
  let v1 = node 0 1 (q [ 0 ]) in
  let v2 = node 1 1 (q [ 1 ]) in
  let v3 = node 0 2 (q [ 0; 1 ]) in
  let g = Dag.add_sample Dag.empty v1 in
  let g = Dag.add_sample g v2 in
  let g = Dag.add_sample g v3 in
  Alcotest.(check int) "three nodes" 3 (Dag.size g);
  Alcotest.(check bool) "edge v1->v2" true (Dag.has_edge g v1 v2);
  Alcotest.(check bool) "edge v1->v3" true (Dag.has_edge g v1 v3);
  Alcotest.(check bool) "edge v2->v3" true (Dag.has_edge g v2 v3);
  Alcotest.(check bool) "no edge v3->v1" false (Dag.has_edge g v3 v1);
  Alcotest.(check bool) "no edge v2->v1" false (Dag.has_edge g v2 v1);
  Alcotest.(check int) "v3 has two ancestors" 2 (Dag.ancestor_count g v3);
  Alcotest.(check bool)
    "duplicate sample rejected" true
    (try
       ignore (Dag.add_sample g (node 0 2 (q [])));
       false
     with Invalid_argument _ -> true)

let test_dag_union_and_restrict () =
  let v1 = node 0 1 (q [ 0 ]) in
  let v2 = node 1 1 (q [ 1 ]) in
  let v3 = node 1 2 (q [ 1 ]) in
  (* two divergent copies built from a common prefix *)
  let base = Dag.add_sample Dag.empty v1 in
  let ga = Dag.add_sample base v2 in
  let gb = Dag.add_sample (Dag.add_sample base v2) v3 in
  let u = Dag.union ga gb in
  Alcotest.(check int) "union size" 3 (Dag.size u);
  Alcotest.(check bool) "union keeps edges" true (Dag.has_edge u v2 v3);
  (* restrict to v2: v1 is not a descendant *)
  let r = Dag.restrict u v2 in
  Alcotest.(check int) "restrict size" 2 (Dag.size r);
  Alcotest.(check bool) "v1 gone" false (Dag.mem r v1);
  Alcotest.(check bool) "v3 kept" true (Dag.mem r v3);
  Alcotest.(check bool) "restrict of absent node" true
    (Dag.is_empty (Dag.restrict Dag.empty v1))

let test_dag_spine_chain () =
  (* a pure chain: spine must recover all of it *)
  let vs = List.init 6 (fun i -> node (i mod 3) (1 + (i / 3)) (q [ i mod 3 ])) in
  let g = List.fold_left Dag.add_sample Dag.empty vs in
  let sp = Dag.spine g ~from:(List.hd vs) in
  Alcotest.(check int) "spine covers the chain" 6 (List.length sp);
  Alcotest.(check bool) "spine is a path" true (Dag.is_path g sp)

let test_dag_spine_diamond () =
  (* diamond: a; b,c concurrent; d sees all — longest path length 3 *)
  let a = node 0 1 (q [ 0 ]) in
  let b = node 1 1 (q [ 1 ]) in
  let c = node 2 1 (q [ 2 ]) in
  let d = node 0 2 (q [ 0 ]) in
  let g = Dag.add_sample Dag.empty a in
  (* b and c both extend only {a}: build as separate branches *)
  let branch_b = Dag.add_sample g b in
  let branch_c = Dag.add_sample g c in
  let merged = Dag.union branch_b branch_c in
  let g = Dag.add_sample merged d in
  let sp = Dag.spine g ~from:a in
  Alcotest.(check int) "longest path in diamond" 3 (List.length sp);
  Alcotest.(check bool) "spine is a path" true (Dag.is_path g sp);
  Alcotest.(check bool) "b and c not both in spine" true
    (not (List.exists (Node.equal b) sp && List.exists (Node.equal c) sp))

(* -------------------------------------------------------------- *)
(* A_DAG runs: the Section 4 observations on finite prefixes       *)
(* -------------------------------------------------------------- *)

module R = Sim.Runner.Make (Dagsim.Adag.Algorithm)

let adag_run ?(seed = 0) ?(max_steps = 400) pattern =
  let oracle = Fd.Oracle.sigma_nu_plus ~seed ~stab_time:40 pattern in
  R.exec ~seed ~pattern ~fd:oracle.Fd.Oracle.query
    ~inputs:(fun _ -> ())
    ~max_steps ()

let pattern44 = Sim.Failure_pattern.make ~n:4 ~crashes:[ (3, 60) ]

(* Observation 4.1: G_p is nondecreasing over p's steps. *)
let test_obs_4_1_monotone () =
  let run = adag_run pattern44 in
  let last_size = Array.make 4 0 in
  Array.iter
    (fun step ->
      let g = step.R.state_after.Dagsim.Adag.Core.g in
      let p = step.R.pid in
      Alcotest.(check bool)
        "dag never shrinks" true
        (Dag.size g >= last_size.(p));
      (* cheap proxy for subgraph: every previously known own sample
         is still present (nodes are never removed) *)
      last_size.(p) <- Dag.size g)
    run.R.steps

(* Observation 4.2: samples of the same process form a chain. *)
let test_obs_4_2_own_samples_chained () =
  let run = adag_run pattern44 in
  let g = run.R.states.(0).Dagsim.Adag.Core.g in
  List.iter
    (fun p ->
      let samples = Dag.samples_of g p in
      let rec chained = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool)
            (Printf.sprintf "p%d sample %d -> %d" p a.Node.index b.Node.index)
            true (Dag.has_edge g a b);
          chained rest
        | [ _ ] | [] -> ()
      in
      chained samples)
    [ 0; 1; 2; 3 ]

(* Observation 4.3-analogue: every sample's value equals the oracle
   history at its owner (the DAG stores genuine samples of D). *)
let test_obs_4_3_values_genuine () =
  let pattern = pattern44 in
  let oracle = Fd.Oracle.sigma_nu_plus ~seed:5 ~stab_time:40 pattern in
  let run =
    R.exec ~seed:5 ~pattern ~fd:oracle.Fd.Oracle.query
      ~inputs:(fun _ -> ())
      ~max_steps:300 ()
  in
  (* reconstruct per-owner sample values from the recorded steps *)
  Array.iter
    (fun step ->
      match step.R.state_after.Dagsim.Adag.Core.last with
      | Some v ->
        Alcotest.(check bool)
          "sample value is H(owner, step time)" true
          (Sim.Fd_value.equal v.Node.value
             (oracle.Fd.Oracle.query step.R.pid step.R.time))
      | None -> Alcotest.fail "a step must take a sample")
    run.R.steps

(* Lemma 4.7-analogue: the limit DAG of a correct process contains
   samples of every correct process, with ever-growing indices. *)
let test_lemma_4_7_gossip_reaches () =
  let run = adag_run ~max_steps:400 pattern44 in
  List.iter
    (fun p ->
      let g = run.R.states.(p).Dagsim.Adag.Core.g in
      List.iter
        (fun s ->
          let samples = Dag.samples_of g s in
          Alcotest.(check bool)
            (Printf.sprintf "p%d's dag has many samples of p%d" p s)
            true
            (List.length samples > 30))
        [ 0; 1; 2 ])
    [ 0; 1; 2 ]

(* Lemma 4.6-analogue: restricted to a fresh-enough own sample, the
   DAG contains only samples of correct processes. *)
let test_lemma_4_6_freshness_barrier () =
  let run = adag_run ~max_steps:500 pattern44 in
  let g = run.R.states.(0).Dagsim.Adag.Core.g in
  (* pick p0's sample taken well after p3's crash at 60: its
     descendants can only be post-crash samples *)
  let fresh =
    List.filter (fun v -> v.Node.index > 40) (Dag.samples_of g 0)
  in
  match fresh with
  | [] -> Alcotest.fail "expected a fresh sample of p0"
  | u :: _ ->
    let sub = Dag.restrict g u in
    List.iter
      (fun v ->
        Alcotest.(check bool)
          (Format.asprintf "no faulty sample below the barrier (%a)" Node.pp v)
          true
          (v.Node.owner <> 3))
      (Dag.nodes sub)

(* Spine quality on a real gossip DAG: the longest path covers a solid
   fraction of the nodes and is a genuine path. *)
let test_spine_quality () =
  let run = adag_run ~max_steps:400 pattern44 in
  let g = run.R.states.(1).Dagsim.Adag.Core.g in
  match Dag.samples_of g 1 with
  | [] -> Alcotest.fail "p1 has samples"
  | first :: _ ->
    let sp = Dag.spine g ~from:first in
    Alcotest.(check bool) "spine is a path" true (Dag.is_path g sp);
    Alcotest.(check bool)
      (Printf.sprintf "spine covers >= 40%% of the dag (%d of %d)"
         (List.length sp) (Dag.size g))
      true
      (List.length sp * 10 >= Dag.size g * 4);
    (* spine lives in G|first *)
    List.iter
      (fun v ->
        Alcotest.(check bool) "spine node is a descendant" true
          (Dag.is_descendant g ~of_:first v))
      sp

(* -------------------------------------------------------------- *)
(* Properties on DAGs produced by real gossip                      *)
(* -------------------------------------------------------------- *)

(* Snapshot a few DAGs out of an A_DAG run, for property tests. *)
let gossip_dags ~seed =
  let run = adag_run ~seed ~max_steps:250 pattern44 in
  Array.to_list run.R.states
  |> List.map (fun st -> st.Dagsim.Adag.Core.g)

let prop_union_laws =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"union is commutative/associative/idempotent"
       ~count:30 QCheck.(int_bound 1000)
       (fun seed ->
         match gossip_dags ~seed with
         | a :: b :: c :: _ ->
           let ( = ) x y =
             List.equal Node.equal (Dag.nodes x) (Dag.nodes y)
           in
           Dag.union a b = Dag.union b a
           && Dag.union a (Dag.union b c) = Dag.union (Dag.union a b) c
           && Dag.union a a = a
         | _ -> false))

let prop_weave_is_path =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"weave is a path of G|u for any block size"
       ~count:30
       QCheck.(pair (int_bound 1000) (int_range 1 6))
       (fun (seed, block) ->
         match gossip_dags ~seed with
         | g :: _ -> (
           match Dag.samples_of g 0 with
           | [] -> false
           | u :: _ ->
             let w = Dag.weave ~block g ~from:u in
             Dag.is_path g w
             && List.for_all (Dag.is_descendant g ~of_:u) w)
         | _ -> false))

let prop_prune_keeps_fresh =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"prune keeps exactly the per-owner window, newest first"
       ~count:30
       QCheck.(pair (int_bound 1000) (int_range 1 40))
       (fun (seed, window) ->
         match gossip_dags ~seed with
         | g :: _ ->
           let pruned = Dag.prune ~window g in
           let subset =
             List.for_all (Dag.mem g) (Dag.nodes pruned)
           in
           let windowed =
             List.for_all
               (fun p ->
                 let before = Dag.samples_of g p in
                 let after = Dag.samples_of pruned p in
                 let newest =
                   List.fold_left
                     (fun acc v -> max acc v.Node.index)
                     0 before
                 in
                 List.length after <= window
                 && List.for_all
                      (fun v -> v.Node.index > newest - window)
                      after
                 && (before = []
                    || List.exists (fun v -> v.Node.index = newest) after))
               [ 0; 1; 2; 3 ]
           in
           subset && windowed
         | _ -> false))

let prop_spine_still_path_after_prune =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"weave of a pruned DAG is still a path"
       ~count:30 QCheck.(int_bound 1000)
       (fun seed ->
         match gossip_dags ~seed with
         | g :: _ -> (
           let pruned = Dag.prune ~window:20 g in
           match List.rev (Dag.samples_of pruned 0) with
           | [] -> true
           | u :: _ ->
             let w = Dag.weave pruned ~from:u in
             Dag.is_path pruned w)
         | _ -> false))

(* -------------------------------------------------------------- *)
(* Canonical path simulation                                       *)
(* -------------------------------------------------------------- *)

(* An automaton that needs message flow to advance: each process
   repeatedly sends its counter to everyone and counts what it
   receives; canonical oldest-first delivery must deliver messages in
   send order. *)
module Probe = struct
  type input = Consensus.Value.t
  type message = int

  type state = { sent : int; got : (Pid.t * int) list }

  let name = "probe"
  let initial ~n:_ ~self:_ _ = { sent = 0; got = [] }

  let step ~n ~self:_ st received _d =
    let got =
      match received with
      | None -> st.got
      | Some e -> (e.Sim.Envelope.src, e.Sim.Envelope.payload) :: st.got
    in
    let sent = st.sent + 1 in
    ({ sent; got }, List.init n (fun dst -> (dst, sent)))

  let pp_message = Format.pp_print_int
  let equal_message = Int.equal

end

module PS = Dagsim.Path_sim.Make (Probe)

let test_path_sim_canonical_order () =
  (* path alternates p0, p1 *)
  let path =
    List.concat_map
      (fun _ -> [ (0, Sim.Fd_value.Unit); (1, Sim.Fd_value.Unit) ])
      (List.init 6 (fun i -> i))
  in
  let r = PS.run ~n:2 ~inputs:(fun _ -> 0) ~path () in
  Alcotest.(check int) "all steps executed" 12 r.PS.steps_executed;
  (* p1 received p0's messages oldest-first: payloads ascending *)
  let from0 =
    List.rev r.PS.states.(1).Probe.got
    |> List.filter_map (fun (src, v) -> if src = 0 then Some v else None)
  in
  let sorted = List.sort Int.compare from0 in
  Alcotest.(check (list int)) "oldest-first delivery" sorted from0

let test_path_sim_until () =
  let path = List.init 20 (fun i -> (i mod 2, Sim.Fd_value.Unit)) in
  let r =
    PS.run ~n:2
      ~inputs:(fun _ -> 0)
      ~path
      ~until:(fun state -> (state 0).Probe.sent >= 3)
      ()
  in
  Alcotest.(check bool) "stopped" true r.PS.stopped;
  Alcotest.(check int) "stopped right after p0's third step" 5
    r.PS.steps_executed;
  Alcotest.(check bool)
    "participants of the prefix" true
    (Pset.equal
       (PS.participants ~path ~prefix:r.PS.steps_executed)
       (Pset.of_list [ 0; 1 ]))

let () =
  Alcotest.run "dag"
    [
      ( "dag-container",
        [
          Alcotest.test_case "build and edges" `Quick test_dag_build;
          Alcotest.test_case "union and restrict" `Quick
            test_dag_union_and_restrict;
          Alcotest.test_case "spine on a chain" `Quick test_dag_spine_chain;
          Alcotest.test_case "spine on a diamond" `Quick
            test_dag_spine_diamond;
        ] );
      ( "adag-observations",
        [
          Alcotest.test_case "Obs 4.1: monotone DAGs" `Quick
            test_obs_4_1_monotone;
          Alcotest.test_case "Obs 4.2: own samples chained" `Quick
            test_obs_4_2_own_samples_chained;
          Alcotest.test_case "Obs 4.3: genuine samples" `Quick
            test_obs_4_3_values_genuine;
          Alcotest.test_case "Lemma 4.7: gossip reaches everyone" `Quick
            test_lemma_4_7_gossip_reaches;
          Alcotest.test_case "Lemma 4.6: freshness barrier" `Quick
            test_lemma_4_6_freshness_barrier;
          Alcotest.test_case "spine quality" `Quick test_spine_quality;
        ] );
      ( "gossip-properties",
        [
          prop_union_laws;
          prop_weave_is_path;
          prop_prune_keeps_fresh;
          prop_spine_still_path_after_prune;
        ] );
      ( "path-sim",
        [
          Alcotest.test_case "canonical oldest-first order" `Quick
            test_path_sim_canonical_order;
          Alcotest.test_case "until predicate and participants" `Quick
            test_path_sim_until;
        ] );
    ]
