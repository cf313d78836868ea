open Procset

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

let check flavour o =
  let* () = check_termination o in
  let* () = check_validity o in
  check_agreement flavour o
