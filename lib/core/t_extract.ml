open Procset
module Dag = Dagsim.Dag
module Node = Dagsim.Node

module Make (A : Consensus.Spec.S) = struct
  module PS = Dagsim.Path_sim.Make (A)

  (* Simulation cost is linear in the path length; keep a bounded
     prefix. The prefix of a path is a path, so soundness holds. *)
  let simulation_window = 400
  let weave_block = 4

  (* Simulate A along the canonical schedule of the path, from the
     initial configuration where everybody proposes [v]; return the
     participants of the first prefix in which [self] decides. *)
  let deciding_participants ~n ~self path v =
    let r =
      PS.run ~n
        ~inputs:(fun _ -> v)
        ~path
        ~until:(fun state -> A.decision (state self) <> None)
        ()
    in
    if r.PS.stopped then
      Some (PS.participants ~path ~prefix:r.PS.steps_executed)
    else None

  (* Lines 14-19 of Fig. 2: simulate schedules of A over G_p|u_p from
     I_0 and from I_1. *)
  include Dagsim.Adag.Emulator (struct
    let name = "T_{D->Sigma-nu}(" ^ A.name ^ ")"

    (* The simulated path rotates through the owners, so it holds about
       [simulation_window / n] samples of each; the window must
       comfortably exceed that, or pruning would cut the path short. *)
    let prune_window = 320
    let extract_every = 4
    let sample d = d

    let extract ~n ~self g u =
      let path =
        Dag.weave ~block:weave_block g ~from:u
        |> List.filteri (fun i _ -> i < simulation_window)
        |> List.map (fun nd -> (nd.Node.owner, nd.Node.value))
      in
      Option.bind (deciding_participants ~n ~self path 0) (fun p0 ->
          Option.map (Pset.union p0) (deciding_participants ~n ~self path 1))
  end)
end
