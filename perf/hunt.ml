(* The counterexample-hunt workload: [Explore.Make] over MR driven by
   naive Sigma-nu (the Section 6.3 substitution), n = 4, one faulty
   process, under the contamination menu. One hunt is one [fuzz]
   campaign run until its first violation, shrunk and certified. *)

open Procset

let n = 4
let faulty = Pset.of_list [ 3 ]
let max_steps = 18 * n

(* The run budget only bounds a hunt that never finds anything; the
   median hunt at this size needs about 30 runs. *)
let runs = 20_000

module E = Explore.Make (Consensus.Mr.With_quorum)
module E_traced = Explore.Make (Layers.Mr)

type 'prop inputs = {
  pattern : Sim.Failure_pattern.t;
  menu : Mc.Menu.t;
  props : 'prop list;
}

let proposals p = if Pset.mem p faulty then 1 else 0
let decision = Consensus.Mr.With_quorum.decision

let pattern =
  Sim.Failure_pattern.make ~n ~crashes:(Pset.fold (fun p l -> (p, max_steps + 1) :: l) faulty [])

let menu () =
  let menu = Mc.Menu.contamination ~n ~faulty () in
  (match Mc.Menu.validate ~pattern menu with
  | Ok () -> ()
  | Error e -> failwith ("contamination menu inadmissible: " ^ e));
  menu

let inputs () =
  {
    pattern;
    menu = menu ();
    props =
      E.M.consensus_props ~decision ~proposals ~flavour:Consensus.Spec.Nonuniform ~pattern;
  }

let seed_of ~seed i = (seed * 100_000) + i

let stop = E.M.decided_stop ~decision ~scope:(Sim.Failure_pattern.correct pattern)
let decided st = decision st <> None

let untraced ~seed inp =
  E.fuzz ~algo:"naive-sn" ~max_steps ~stop ~decided ~seed ~runs ~n ~menu:inp.menu ~pattern
    ~inputs:proposals ~props:inp.props ()

let problems (r : E.report) =
  match r.violation with
  | None -> [ "no counterexample within the run budget" ]
  | Some v ->
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [
        (not v.v_replay_ok, "Runner.replay rejected the counterexample");
        (not v.v_history_ok, "the counterexample's detector history is illegal");
        (List.length v.v_shrunk > List.length v.v_moves, "shrinking grew the schedule");
      ]

let counts (r : E.report) =
  let shrunk, candidates =
    match r.violation with
    | None -> (0, 0)
    | Some v -> (List.length v.v_shrunk, v.v_candidates)
  in
  [ ("runs", r.runs); ("shrunk_len", shrunk); ("candidates", candidates) ]

(* ------------------------------------------------------------------ *)
(* Traced pass                                                          *)
(* ------------------------------------------------------------------ *)

(* The untraced [fuzz] shrinks and certifies inside one call; the
   traced hunt makes the same three steps through the public API —
   [fuzz ~shrink:false], [shrink_schedule], then concretize + replay +
   history check — so each gets its own span. Phase self time is the
   span minus the MR steps and property checks inside it. *)

let shrink_self = ref 0
let certify_self = ref 0
let raw_len = ref 0

let reset () =
  shrink_self := 0;
  certify_self := 0;
  raw_len := 0

let children () = Layers.mr.ns + Layers.props.ns

let phase ~parent ~name self f =
  Probe.with_span ~parent ~name ~cat:name (fun ~id:_ ->
      let t0 = Probe.now () and c0 = children () in
      let r = f () in
      self := !self + (Probe.now () - t0) - (children () - c0);
      r)

type traced = { report : E_traced.report; shrunk : int; candidates : int; certified : bool }

let traced ~parent ~seed =
  Probe.with_span ~parent ~name:(Printf.sprintf "hunt %d" seed) ~cat:"hunt" (fun ~id ->
      let props =
        List.map
          (fun (p : E_traced.M.property) ->
            { p with prop_check = Layers.timed_check p.prop_check })
          (E_traced.M.consensus_props ~decision ~proposals ~flavour:Consensus.Spec.Nonuniform
             ~pattern)
      in
      let menu = menu () in
      let stop = E_traced.M.decided_stop ~decision ~scope:(Sim.Failure_pattern.correct pattern) in
      let report =
        Probe.with_span ~parent:id ~name:"explore" ~cat:"explore" (fun ~id:_ ->
            E_traced.fuzz ~algo:"naive-sn" ~max_steps ~shrink:false ~stop ~decided ~seed ~runs ~n
              ~menu ~pattern ~inputs:proposals ~props ())
      in
      match report.violation with
      | None -> { report; shrunk = 0; candidates = 0; certified = false }
      | Some v ->
        raw_len := !raw_len + List.length v.v_moves;
        let shrunk, candidates =
          phase ~parent:id ~name:"shrink" shrink_self (fun () ->
              match E_traced.shrink_schedule ~n ~inputs:proposals ~props v.v_moves with
              | Ok r -> r
              | Error _ -> (v.v_moves, 0))
        in
        let certified =
          phase ~parent:id ~name:"certify" certify_self (fun () ->
              let steps, samples, states =
                E_traced.M.Space.concretize ~n ~inputs:proposals shrunk
              in
              let cx =
                {
                  E_traced.M.cx_property = v.v_property;
                  cx_detail = v.v_detail;
                  cx_moves = shrunk;
                  cx_steps = steps;
                  cx_samples = samples;
                  cx_states = states;
                }
              in
              let replay_ok =
                match E_traced.M.replay_counterexample ~n ~inputs:proposals cx with
                | Error _ -> false
                | Ok replayed ->
                  List.exists
                    (fun (p : E_traced.M.property) ->
                      Result.is_error (p.prop_check (fun q -> replayed.(q))))
                    props
              in
              replay_ok
              && Result.is_ok (Mc.history_legal ~kind:menu.Mc.Menu.kind ~pattern samples))
        in
        { report; shrunk = List.length shrunk; candidates; certified })
