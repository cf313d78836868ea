open Procset

module type S = sig
  include Sim.Automaton.S with type input = Value.t

  val decision : state -> Value.t option
  val decision_round : state -> int option
end

type flavour = Uniform | Nonuniform

let pp_flavour fmt = function
  | Uniform -> Format.pp_print_string fmt "uniform"
  | Nonuniform -> Format.pp_print_string fmt "nonuniform"

type outcome = {
  pattern : Sim.Failure_pattern.t;
  proposals : Value.t array;
  decisions : Value.t option array;
}

let outcome ~pattern ~proposals ~decisions =
  let n = Sim.Failure_pattern.n pattern in
  {
    pattern;
    proposals = Array.init n proposals;
    decisions = Array.init n decisions;
  }

let check_termination o =
  let undecided =
    Pset.filter
      (fun p -> o.decisions.(p) = None)
      (Sim.Failure_pattern.correct o.pattern)
  in
  if Pset.is_empty undecided then Ok ()
  else
    Error
      (Format.asprintf "termination: correct processes %a did not decide"
         Pset.pp undecided)

let check_validity o =
  let proposed v = Array.exists (Value.equal v) o.proposals in
  let bad = ref None in
  Array.iteri
    (fun p -> function
      | Some v when not (proposed v) && !bad = None -> bad := Some (p, v)
      | Some _ | None -> ())
    o.decisions;
  match !bad with
  | None -> Ok ()
  | Some (p, v) ->
    Error
      (Format.asprintf "validity: p%d decided %a, which nobody proposed" p
         Value.pp v)

let check_agreement flavour o =
  let scope =
    match flavour with
    | Uniform -> Pset.full ~n:(Sim.Failure_pattern.n o.pattern)
    | Nonuniform -> Sim.Failure_pattern.correct o.pattern
  in
  let decided =
    Pset.fold
      (fun p acc ->
        match o.decisions.(p) with Some v -> (p, v) :: acc | None -> acc)
      scope []
  in
  match decided with
  | [] -> Ok ()
  | (p0, v0) :: rest -> (
    match List.find_opt (fun (_, v) -> not (Value.equal v v0)) rest with
    | None -> Ok ()
    | Some (p, v) ->
      Error
        (Format.asprintf "%a agreement: p%d decided %a but p%d decided %a"
           pp_flavour flavour p0 Value.pp v0 p Value.pp v))

let ( let* ) = Result.bind

let check_safety flavour o =
  let* () = check_validity o in
  check_agreement flavour o

let check flavour o =
  let* () = check_termination o in
  check_safety flavour o

type run = {
  outcome : outcome;
  rounds : int list;
  steps : int;
  all_decided : bool;
  metrics : Sim.Runner.metrics;
}

let decide (module A : S) ?faults ~seed ~pattern ~fd ~proposals ~max_steps ()
    =
  let module R = Sim.Runner.Make (A) in
  let correct = Sim.Failure_pattern.correct pattern in
  let run =
    R.exec ~seed ?faults ~record:false ~pattern ~fd ~inputs:proposals
      ~max_steps
      ~stop:(fun st _ ->
        Pset.for_all (fun p -> A.decision (st p) <> None) correct)
      ()
  in
  let state p = run.R.states.(p) in
  {
    outcome =
      outcome ~pattern ~proposals ~decisions:(fun p -> A.decision (state p));
    rounds =
      List.filter_map
        (fun p -> A.decision_round (state p))
        (Pset.elements correct);
    steps = run.R.step_count;
    all_decided = run.R.stopped_early;
    metrics = run.R.metrics;
  }
