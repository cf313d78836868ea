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

(* Both safety checks run on every explored state of mc and fuzz, so
   they walk the arrays in place instead of collecting lists. *)
let check_validity o =
  let proposed v = Array.exists (Value.equal v) o.proposals in
  let rec go p =
    if p = Array.length o.decisions then Ok ()
    else
      match o.decisions.(p) with
      | Some v when not (proposed v) ->
        Error
          (Format.asprintf "validity: p%d decided %a, which nobody proposed" p
             Value.pp v)
      | Some _ | None -> go (p + 1)
  in
  go 0

(* The highest decided pid in scope is the reference; a violation
   names the next lower one that disagrees with it. *)
let check_agreement flavour o =
  let scope =
    match flavour with
    | Uniform -> Pset.full ~n:(Sim.Failure_pattern.n o.pattern)
    | Nonuniform -> Sim.Failure_pattern.correct o.pattern
  in
  let decided p = if Pset.mem p scope then o.decisions.(p) else None in
  let rec disagreeing p0 v0 p =
    if p < 0 then Ok ()
    else
      match decided p with
      | Some v when not (Value.equal v v0) ->
        Error
          (Format.asprintf "%a agreement: p%d decided %a but p%d decided %a"
             pp_flavour flavour p0 Value.pp v0 p Value.pp v)
      | Some _ | None -> disagreeing p0 v0 (p - 1)
  in
  let rec reference p =
    if p < 0 then Ok ()
    else
      match decided p with
      | Some v0 -> disagreeing p v0 (p - 1)
      | None -> reference (p - 1)
  in
  reference (Sim.Failure_pattern.n o.pattern - 1)

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
