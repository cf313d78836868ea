type t =
  | Unit
  | Leader of Procset.Pid.t
  | Quorum of Procset.Pset.t
  | Suspects of Procset.Pset.t
  | Pair of t * t

let rec equal a b =
  match a, b with
  | Unit, Unit -> true
  | Leader p, Leader q -> Procset.Pid.equal p q
  | Quorum s, Quorum s' -> Procset.Pset.equal s s'
  | Suspects s, Suspects s' -> Procset.Pset.equal s s'
  | Pair (a1, a2), Pair (b1, b2) -> equal a1 b1 && equal a2 b2
  | (Unit | Leader _ | Quorum _ | Suspects _ | Pair _), _ -> false

let tag = function
  | Unit -> 0
  | Leader _ -> 1
  | Quorum _ -> 2
  | Suspects _ -> 3
  | Pair _ -> 4

let rec compare a b =
  match a, b with
  | Unit, Unit -> 0
  | Leader p, Leader q -> Procset.Pid.compare p q
  | Quorum s, Quorum s' -> Procset.Pset.compare s s'
  | Suspects s, Suspects s' -> Procset.Pset.compare s s'
  | Pair (a1, a2), Pair (b1, b2) ->
    let c = compare a1 b1 in
    if c <> 0 then c else compare a2 b2
  | _ -> Int.compare (tag a) (tag b)

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Leader p -> Format.fprintf fmt "leader=%a" Procset.Pid.pp p
  | Quorum s -> Format.fprintf fmt "quorum=%a" Procset.Pset.pp s
  | Suspects s -> Format.fprintf fmt "suspects=%a" Procset.Pset.pp s
  | Pair (a, b) -> Format.fprintf fmt "(%a, %a)" pp a pp b

let pair_exn = function
  | Pair (a, b) -> a, b
  | v -> invalid_arg (Format.asprintf "Fd_value.pair_exn: %a" pp v)

let fst_exn v = fst (pair_exn v)
let snd_exn v = snd (pair_exn v)
