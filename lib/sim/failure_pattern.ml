open Procset

(* [faulty] and [correct] are derived from [crash] once, at [make]:
   property checks ask for them on every explored state. *)
type t = {
  n : int;
  crash : int option array;
  faulty : Pset.t;
  correct : Pset.t;
}

let make ~n ~crashes =
  if n < 2 then invalid_arg "Failure_pattern.make: need n >= 2";
  if n > Pset.max_size then invalid_arg "Failure_pattern.make: n too large";
  let crash = Array.make n None in
  List.iter
    (fun (p, tc) ->
      if not (Pid.valid ~n p) then
        invalid_arg (Printf.sprintf "Failure_pattern.make: bad pid %d" p);
      if tc < 0 then invalid_arg "Failure_pattern.make: negative crash time";
      if crash.(p) <> None then
        invalid_arg (Printf.sprintf "Failure_pattern.make: duplicate pid %d" p);
      crash.(p) <- Some tc)
    crashes;
  let faulty =
    List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty crashes
  in
  { n; crash; faulty; correct = Pset.complement ~n faulty }

let failure_free ~n = make ~n ~crashes:[]
let n f = f.n
let crash_time f p = f.crash.(p)

let crashed f p t =
  match f.crash.(p) with None -> false | Some tc -> t >= tc

let crashed_set f t =
  Array.to_seq f.crash
  |> Seq.fold_lefti
       (fun acc p -> function
         | Some tc when t >= tc -> Pset.add p acc
         | Some _ | None -> acc)
       Pset.empty

let faulty f = f.faulty
let correct f = f.correct
let num_faulty f = Pset.cardinal f.faulty

let last_crash_time f =
  Array.fold_left
    (fun acc -> function Some tc -> max acc tc | None -> acc)
    0 f.crash

let equal a b = a.n = b.n && a.crash = b.crash

let pp fmt f =
  let crashes =
    List.filter_map
      (fun p -> Option.map (fun tc -> (p, tc)) f.crash.(p))
      (Pid.all ~n:f.n)
  in
  let pp_crash fmt (p, tc) = Format.fprintf fmt "%a@@%d" Pid.pp p tc in
  let pp_sep fmt () = Format.fprintf fmt ",@ " in
  Format.fprintf fmt "n=%d crashes:[@[%a@]]" f.n
    (Format.pp_print_list ~pp_sep pp_crash)
    crashes
