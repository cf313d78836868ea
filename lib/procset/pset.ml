type t = int

let max_size = 62

let check_elt p =
  if p < 0 || p >= max_size then
    invalid_arg (Printf.sprintf "Pset: process id %d out of [0, %d)" p max_size)

let empty = 0

let full ~n =
  if n < 0 || n > max_size then
    invalid_arg (Printf.sprintf "Pset.full: n = %d out of [0, %d]" n max_size);
  if n = 0 then 0 else (1 lsl n) - 1

let singleton p =
  check_elt p;
  1 lsl p

let mem p s = p >= 0 && p < max_size && s land (1 lsl p) <> 0
let add p s = s lor singleton p
let remove p s = s land lnot (singleton p)
let union s s' = s lor s'
let inter s s' = s land s'
let diff s s' = s land lnot s'
let is_empty s = s = 0
let intersects s s' = s land s' <> 0
let disjoint s s' = s land s' = 0
let subset s s' = s land lnot s' = 0
let equal = Int.equal
let compare = Int.compare

let cardinal s =
  let rec count acc s = if s = 0 then acc else count (acc + 1) (s land (s - 1)) in
  count 0 s

let fold f s init =
  let rec loop p s acc =
    if s = 0 then acc
    else if s land 1 <> 0 then loop (p + 1) (s lsr 1) (f p acc)
    else loop (p + 1) (s lsr 1) acc
  in
  loop 0 s init

let elements s = List.rev (fold (fun p acc -> p :: acc) s [])
let of_list ps = List.fold_left (fun s p -> add p s) empty ps
let iter f s = fold (fun p () -> f p) s ()
let for_all pred s = fold (fun p acc -> acc && pred p) s true
let exists pred s = fold (fun p acc -> acc || pred p) s false
let filter pred s = fold (fun p acc -> if pred p then add p acc else acc) s empty

let min_elt s =
  if s = 0 then raise Not_found;
  (* lowest set bit *)
  let low = s land -s in
  let rec position i m = if m = 1 then i else position (i + 1) (m lsr 1) in
  position 0 low

let is_majority ~n s = 2 * cardinal s > n
let complement ~n s = diff (full ~n) s

(* one draw is 62 bits, one per possible member *)
let random_subset g s = s land Draw.bits g

let subsets s =
  let elts = elements s in
  List.fold_left
    (fun acc p -> List.concat_map (fun sub -> [ sub; add p sub ]) acc)
    [ empty ] elts

let pp fmt s =
  let pp_sep fmt () = Format.fprintf fmt ",@ " in
  Format.fprintf fmt "{@[%a@]}"
    (Format.pp_print_list ~pp_sep Pid.pp)
    (elements s)

let to_string s = Format.asprintf "%a" pp s
