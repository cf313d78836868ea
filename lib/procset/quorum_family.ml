module type S = sig
  val name : string
  val shape : n:int -> (unit, string) result
  val is_quorum : n:int -> Pset.t -> bool
end

type t = (module S)

type error =
  | Bad_shape of { family : string; n : int; reason : string }
  | No_live_quorum of { family : string; n : int; live : Pset.t }

let error_to_string = function
  | Bad_shape { family; n; reason } ->
    Printf.sprintf "quorum family %s does not fit n=%d: %s" family n reason
  | No_live_quorum { family; n; live } ->
    Printf.sprintf "quorum family %s has no quorum inside %s (n=%d)" family
      (Pset.to_string live) n

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)
let name (module F : S) = F.name
let pp fmt f = Format.pp_print_string fmt (name f)
let is_quorum (module F : S) ~n s = F.is_quorum ~n s

let validate (module F : S) ~n ~live =
  match F.shape ~n with
  | Error reason -> Error (Bad_shape { family = F.name; n; reason })
  | Ok () ->
    (* monotone family: some quorum fits inside [live] iff [live]
       itself is one *)
    if F.is_quorum ~n live then Ok ()
    else Error (No_live_quorum { family = F.name; n; live })

let is_min_quorum (module F : S) ~n s =
  F.is_quorum ~n s
  && Pset.for_all (fun p -> not (F.is_quorum ~n (Pset.remove p s))) s

let min_quorums f ~n ~within =
  Pset.subsets within
  |> List.filter (is_min_quorum f ~n)
  |> List.sort (fun a b ->
         match Int.compare (Pset.cardinal a) (Pset.cardinal b) with
         | 0 -> Pset.compare a b
         | c -> c)

let min_quorum_size f ~n =
  match min_quorums f ~n ~within:(Pset.full ~n) with
  | [] -> None
  | q :: _ -> Some (Pset.cardinal q)

let resilience (module F : S) ~n =
  (* the cheapest crash set that kills every quorum leaves the largest
     non-quorum survivor set *)
  let largest_non_quorum =
    List.fold_left
      (fun acc s -> if F.is_quorum ~n s then acc else max acc (Pset.cardinal s))
      (-1)
      (Pset.subsets (Pset.full ~n))
  in
  if largest_non_quorum < 0 then n (* everything is a quorum *)
  else n - largest_non_quorum - 1

(* One [Draw.int] per added member, indexing the remaining candidates
   in increasing pid order. *)
let grow_quorum (module F : S) ~n g ~pool =
  let rec grow q candidates =
    if F.is_quorum ~n q then Some q
    else if Pset.is_empty candidates then None
    else
      let elts = Pset.elements candidates in
      let pick = List.nth elts (Draw.int g (List.length elts)) in
      grow (Pset.add pick q) (Pset.remove pick candidates)
  in
  grow Pset.empty pool

(* ---------------------------------------------------------------- *)
(* Instances                                                         *)
(* ---------------------------------------------------------------- *)

let majority : t =
  (module struct
    let name = "majority"
    let shape ~n = if n >= 1 then Ok () else Error "need n >= 1"
    let is_quorum ~n s = Pset.is_majority ~n s
  end)

let super_threshold ~n ~f = (n + f + 2) / 2 (* = ceil ((n + f + 1) / 2) *)

let supermajority ~f : t =
  (module struct
    let name = Printf.sprintf "super:%d" f

    let shape ~n =
      if f < 0 then Error "need f >= 0"
      else if super_threshold ~n ~f > n then
        Error
          (Printf.sprintf "threshold %d exceeds n" (super_threshold ~n ~f))
      else Ok ()

    let is_quorum ~n s = Pset.cardinal s >= super_threshold ~n ~f
  end)

let weighted ~weights : t =
  (module struct
    let name =
      Printf.sprintf "weighted:%s"
        (String.concat "," (List.map string_of_int weights))

    let total = List.fold_left ( + ) 0 weights
    let warr = Array.of_list weights

    let shape ~n =
      if List.length weights <> n then
        Error
          (Printf.sprintf "%d weights for %d processes"
             (List.length weights) n)
      else if List.exists (fun w -> w < 0) weights then
        Error "negative weight"
      else if total <= 0 then Error "zero total weight"
      else Ok ()

    let is_quorum ~n s =
      ignore n;
      2 * Pset.fold (fun p acc -> acc + warr.(p)) s 0 > total
  end)

(* the most square tiling of [n], as the default grid *)
let square_rows n =
  let rec down r = if r >= 1 && n mod r <> 0 then down (r - 1) else max r 1 in
  down (int_of_float (sqrt (float_of_int n)))

let grid ?rows ?cols () : t =
  (module struct
    let name =
      match (rows, cols) with
      | None, None -> "grid"
      | r, c ->
        let s = function None -> "?" | Some v -> string_of_int v in
        Printf.sprintf "grid:%sx%s" (s r) (s c)

    let dims ~n =
      match (rows, cols) with
      | Some r, Some c -> (r, c)
      | Some r, None -> (r, if r >= 1 && n mod r = 0 then n / r else -1)
      | None, Some c -> ((if c >= 1 && n mod c = 0 then n / c else -1), c)
      | None, None ->
        let r = square_rows n in
        (r, n / r)

    let shape ~n =
      let r, c = dims ~n in
      if r < 1 || c < 1 || r * c <> n then
        Error
          (Printf.sprintf
             "a %s grid does not tile %d processes (quorums of a ragged \
              grid need not intersect)"
             (match (rows, cols) with
             | Some r, Some c -> Printf.sprintf "%dx%d" r c
             | _ -> "derived")
             n)
      else Ok ()

    let is_quorum ~n s =
      let r, c = dims ~n in
      r >= 1 && c >= 1
      && List.exists
           (fun row ->
             Pset.subset
               (Pset.of_list (List.init c (fun j -> (row * c) + j)))
               s)
           (List.init r (fun i -> i))
      && List.exists
           (fun col ->
             Pset.subset
               (Pset.of_list (List.init r (fun i -> (i * c) + col)))
               s)
           (List.init c (fun j -> j))
  end)

(* ---------------------------------------------------------------- *)
(* Parsing                                                           *)
(* ---------------------------------------------------------------- *)

let spellings = "majority | super:F | weighted:W0,W1,... | grid[:RxC]"

let of_string s =
  let err () =
    Error (Printf.sprintf "unknown quorum family %S (expected %s)" s spellings)
  in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "majority" ] -> Ok majority
  | [ "super"; f ] -> (
    match int_of_string_opt f with
    | Some f when f >= 0 -> Ok (supermajority ~f)
    | _ -> err ())
  | [ "weighted"; ws ] -> (
    let parsed =
      List.map
        (fun w -> int_of_string_opt (String.trim w))
        (String.split_on_char ',' ws)
    in
    if List.exists Option.is_none parsed || parsed = [] then err ()
    else Ok (weighted ~weights:(List.map Option.get parsed)))
  | [ "grid" ] -> Ok (grid ())
  | [ "grid"; dims ] -> (
    match String.split_on_char 'x' dims with
    | [ r; c ] -> (
      match (int_of_string_opt r, int_of_string_opt c) with
      | Some r, Some c when r >= 1 && c >= 1 -> Ok (grid ~rows:r ~cols:c ())
      | _ -> err ())
    | _ -> err ())
  | _ -> err ()
