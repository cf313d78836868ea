(* The exhaustive-verification workload: what [nuc_cli mc --algo anuc]
   runs — [Mc.Make (Core.Anuc)] over E_1(3) (n = 3, one faulty
   process) under the (Omega, Sigma-nu+) contamination menu, library
   defaults. Exhaustive, so there is nothing for a seed to vary. *)

open Procset

let n = 3
let faulty = Pset.of_list [ 2 ]

(* Distinct states at each depth the benchmark runs, as every reduction
   (none, sleep sets, DPOR) counts them (depth 11: EXPERIMENTS.md B11;
   depth 7, the smoke size: [nuc_cli mc --algo anuc --depth 7
   --reduction none|sleep|dpor]). *)
let expected_states = [ (7, 10_332); (11, 433_569) ]

module M = Mc.Make (Core.Anuc)
module M_traced = Mc.Make (Layers.Anuc)

type 'prop inputs = {
  pattern : Sim.Failure_pattern.t;
  menu : Mc.Menu.t;
  props : 'prop list;
}

let proposals p = if Pset.mem p faulty then 1 else 0

(* The faulty process crashes past the depth bound, so every explored
   schedule may still step it while the detector class treats it as
   faulty. *)
let pattern ~depth =
  Sim.Failure_pattern.make ~n ~crashes:(Pset.fold (fun p l -> (p, depth + 1) :: l) faulty [])

let menu ~pattern =
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  (match Mc.Menu.validate ~pattern menu with
  | Ok () -> ()
  | Error e -> failwith ("contamination menu inadmissible: " ^ e));
  menu

let inputs ~depth =
  let pattern = pattern ~depth in
  {
    pattern;
    menu = menu ~pattern;
    props =
      M.consensus_props ~decision:Core.Anuc.decision ~proposals
        ~flavour:Consensus.Spec.Nonuniform ~pattern;
  }

let untraced ~depth inp =
  let stop =
    M.decided_stop ~decision:Core.Anuc.decision ~scope:(Sim.Failure_pattern.correct inp.pattern)
  in
  M.run ~n ~menu:inp.menu ~depth ~inputs:proposals ~props:inp.props ~stop ()

(* [violated]: the report carries a counterexample. *)
let problems ~depth ~violated (s : Mc.stats) =
  List.filter_map
    (fun (bad, msg) -> if bad then Some msg else None)
    [
      (s.truncated, "exploration truncated");
      (violated, "property violated");
      ( List.assoc_opt depth expected_states <> Some s.distinct_states,
        Printf.sprintf "%d distinct states, expected %s" s.distinct_states
          (match List.assoc_opt depth expected_states with
          | Some k -> string_of_int k
          | None -> "none pinned for this depth") );
    ]

let counts (s : Mc.stats) =
  [ ("transitions", s.transitions); ("distinct_states", s.distinct_states) ]

let traced ~depth =
  let pattern = pattern ~depth in
  let props =
    List.map
      (fun (p : M_traced.property) -> { p with prop_check = Layers.timed_check p.prop_check })
      (M_traced.consensus_props ~decision:Core.Anuc.decision ~proposals
         ~flavour:Consensus.Spec.Nonuniform ~pattern)
  in
  let stop =
    M_traced.decided_stop ~decision:Core.Anuc.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  M_traced.run ~n ~menu:(menu ~pattern) ~depth ~inputs:proposals ~props ~stop ()
