open Procset

module Make (A : Sim.Automaton.S) = struct
  module R = Sim.Runner.Make (A)

  type result = { states : A.state array; steps_executed : int; stopped : bool }

  let run ~n ~inputs ~path ?(until = fun _ -> false) () =
    (* The detector value of the path entry being stepped. *)
    let d = ref Sim.Fd_value.Unit in
    let s =
      R.Session.create ~record:false
        ~pattern:(Sim.Failure_pattern.failure_free ~n)
        ~fd:(fun _ _ -> !d)
        ~inputs ()
    in
    let state = R.Session.state s in
    (* A step with no choice receives the oldest pending message, else
       lambda: Lemma 4.10's canonical schedule. *)
    let rec exec executed = function
      | [] -> (executed, false)
      | (p, dp) :: rest ->
        d := dp;
        R.Session.step s p;
        if until state then (executed + 1, true) else exec (executed + 1) rest
    in
    let steps_executed, stopped = exec 0 path in
    { states = Array.init n state; steps_executed; stopped }

  let participants ~path ~prefix =
    List.filteri (fun i _ -> i < prefix) path
    |> List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty
end
