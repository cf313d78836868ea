module Kmap = Map.Make (struct
  type t = Node.key

  let compare = Node.compare_key
end)

module Kset = Set.Make (struct
  type t = Node.key

  let compare = Node.compare_key
end)

type entry = {
  node : Node.t;
  ancestors : Kset.t;
  anc_count : int;
  depth : int;
      (* 1 + max depth of all nodes known at creation: a causal rank
         that is strictly increasing along edges and — unlike the
         ancestor count — stays a valid topological key after
         pruning *)
}

type t = entry Kmap.t

let empty = Kmap.empty
let is_empty = Kmap.is_empty
let size = Kmap.cardinal
let mem g v = Kmap.mem (Node.key v) g
let find g k = Option.map (fun e -> e.node) (Kmap.find_opt k g)

let add_sample g v =
  let k = Node.key v in
  if Kmap.mem k g then
    invalid_arg
      (Format.asprintf "Dag.add_sample: node %a already present" Node.pp v);
  let ancestors = Kmap.fold (fun k' _ acc -> Kset.add k' acc) g Kset.empty in
  let depth = 1 + Kmap.fold (fun _ e acc -> max acc e.depth) g 0 in
  Kmap.add k
    { node = v; ancestors; anc_count = Kset.cardinal ancestors; depth }
    g

(* A node created once has the same ancestor set in every DAG copy, so
   taking either entry on collision is sound. [Kmap.union] shares
   structure when one side is a sub-map of the other, which is the
   common case under gossip. *)
let union g g' = Kmap.union (fun _ e _ -> Some e) g g'

let has_edge g u v =
  match Kmap.find_opt (Node.key v) g with
  | None -> false
  | Some e -> Kmap.mem (Node.key u) g && Kset.mem (Node.key u) e.ancestors

let is_descendant g ~of_:u v =
  Node.equal u v || has_edge g u v

let restrict g v =
  if not (mem g v) then empty
  else begin
    let ku = Node.key v in
    let kept =
      Kmap.filter
        (fun k e -> Node.compare_key k ku = 0 || Kset.mem ku e.ancestors)
        g
    in
    let keys = Kmap.fold (fun k _ acc -> Kset.add k acc) kept Kset.empty in
    Kmap.map
      (fun e ->
        let ancestors = Kset.inter e.ancestors keys in
        { e with ancestors; anc_count = Kset.cardinal ancestors })
      kept
  end

let nodes g = Kmap.fold (fun _ e acc -> e.node :: acc) g [] |> List.rev

let prune ~window g =
  (* newest index per owner *)
  let newest = Hashtbl.create 8 in
  Kmap.iter
    (fun (owner, index) _ ->
      match Hashtbl.find_opt newest owner with
      | Some i when i >= index -> ()
      | Some _ | None -> Hashtbl.replace newest owner index)
    g;
  Kmap.filter
    (fun (owner, index) _ ->
      match Hashtbl.find_opt newest owner with
      | Some top -> index > top - window
      | None -> true)
    g

let samples_of g p =
  nodes g |> List.filter (fun v -> Procset.Pid.equal v.Node.owner p)

let ancestor_count g v =
  match Kmap.find_opt (Node.key v) g with
  | None -> 0
  | Some e -> Kset.cardinal (Kset.filter (fun k -> Kmap.mem k g) e.ancestors)

(* Longest path of [G|from], computed exactly. A node is in [G|from]
   iff [from] is among its (transitively closed) ancestors, sorting by
   full ancestor count is a topological order ([u ∈ A(v)] implies
   [A(u) ⊊ A(v)]), and — the A_DAG invariant again — every ancestor of
   [v] has a direct edge to [v], so the longest path ending at [v] is
   one node longer than the longest path ending at any member of
   [A(v) ∩ G|from]. *)
let spine g ~from =
  if not (mem g from) then []
  else begin
    let ku = Node.key from in
    let members =
      Kmap.fold
        (fun k e acc ->
          if Node.compare_key k ku = 0 || Kset.mem ku e.ancestors then
            (e.depth, k, e) :: acc
          else acc)
        g []
      |> List.sort (fun (c, k, _) (c', k', _) ->
             let cc = Int.compare c c' in
             if cc <> 0 then cc else Node.compare_key k k')
    in
    (* lp: node key -> (longest path length ending there, predecessor).
       The best predecessor of [v] is the processed member with the
       highest path length that is an ancestor of [v]; scanning the
       processed members in decreasing path length and stopping at the
       first ancestor makes this O(1) amortized in the dense DAGs
       A_DAG produces. *)
    let lp = Hashtbl.create 64 in
    let by_lp = ref [] (* (len, key), sorted by len descending *) in
    let best = ref None in
    List.iter
      (fun (_, k, e) ->
        let best_pred =
          List.find_opt (fun (_, a) -> Kset.mem a e.ancestors) !by_lp
        in
        let entry =
          match best_pred with
          | Some (len, a) -> (len + 1, Some a)
          | None -> (1, None)
        in
        Hashtbl.replace lp k entry;
        (* insert into the descending list *)
        let rec insert = function
          | (len', _) :: _ as rest when len' <= fst entry ->
            (fst entry, k) :: rest
          | hd :: rest -> hd :: insert rest
          | [] -> [ (fst entry, k) ]
        in
        by_lp := insert !by_lp;
        (match !best with
        | Some (len', _) when len' >= fst entry -> ()
        | _ -> best := Some (fst entry, k)))
      members;
    match !best with
    | None -> []
    | Some (_, last) ->
      let rec backtrack acc k =
        let node =
          match Kmap.find_opt k g with
          | Some e -> e.node
          | None -> assert false
        in
        match Hashtbl.find_opt lp k with
        | Some (_, Some prev) -> backtrack (node :: acc) prev
        | Some (_, None) | None -> node :: acc
      in
      backtrack [] last
  end

(* The Lemma 4.8-style path: starting from [from], repeatedly extend
   with the earliest not-yet-used sample of the next owner (in
   rotation) that the current path end has an edge to. This yields a
   path that keeps visiting every live owner — which is what the
   emulations of Figs. 2-3 need: participants(path) must cover the
   trusted quorums, and a simulated schedule must give steps to every
   correct process. Per-owner cursors only move forward (as the path
   end deepens, fewer old nodes remain its descendants), so the
   construction is linear. *)
let weave ?(block = 1) g ~from =
  if not (mem g from) then []
  else begin
    let owner_samples = Hashtbl.create 8 in
    Kmap.iter
      (fun (owner, _) e ->
        let existing =
          Option.value ~default:[] (Hashtbl.find_opt owner_samples owner)
        in
        Hashtbl.replace owner_samples owner (e :: existing))
      g;
    (* per-owner arrays sorted by index ascending, with a cursor *)
    let owners = ref [] in
    Hashtbl.iter
      (fun owner entries ->
        let arr =
          Array.of_list
            (List.sort
               (fun e e' -> Int.compare e.node.Node.index e'.node.Node.index)
               entries)
        in
        owners := (owner, arr, ref 0) :: !owners)
      owner_samples;
    let owners =
      List.sort (fun (o, _, _) (o', _, _) -> Int.compare o o') !owners
    in
    let n_owners = List.length owners in
    let owner_array = Array.of_list owners in
    let rec find_descendant last arr cursor =
      if !cursor >= Array.length arr then None
      else begin
        let e = arr.(!cursor) in
        if Kset.mem (Node.key last) e.ancestors then Some e.node
        else begin
          incr cursor;
          find_descendant last arr cursor
        end
      end
    in
    (* Take up to [block] consecutive samples of one owner before
       rotating: every owner switch forfeits the gossip lag (the next
       owner's first sample knowing the current path end is several
       indices ahead), so longer blocks yield more simulated steps per
       unit of global time while still visiting every owner. *)
    let rec take_block acc last arr cursor remaining =
      if remaining = 0 then (acc, last, true)
      else
        match find_descendant last arr cursor with
        | Some w ->
          incr cursor;
          take_block (w :: acc) w arr cursor (remaining - 1)
        | None -> (acc, last, remaining < block)
    in
    let rec extend acc last start_slot tried =
      if tried >= n_owners then List.rev acc
      else begin
        let slot = (start_slot + tried) mod n_owners in
        let _, arr, cursor = owner_array.(slot) in
        let acc', last', progressed = take_block acc last arr cursor block in
        if progressed then
          extend acc' last' ((slot + 1) mod n_owners) 0
        else extend acc last start_slot (tried + 1)
      end
    in
    (* start the rotation just after from's owner; mark from used *)
    let start_slot =
      let rec find i = function
        | [] -> 0
        | (o, arr, cursor) :: rest ->
          if o = from.Node.owner then begin
            (* advance this owner's cursor past [from] *)
            let rec skip () =
              if
                !cursor < Array.length arr
                && arr.(!cursor).node.Node.index <= from.Node.index
              then begin
                incr cursor;
                skip ()
              end
            in
            skip ();
            (i + 1) mod n_owners
          end
          else find (i + 1) rest
      in
      find 0 owners
    in
    extend [ from ] from start_slot 0
  end

let is_path g = function
  | [] -> false
  | first :: rest ->
    mem g first
    && fst
         (List.fold_left
            (fun (ok, prev) v -> (ok && has_edge g prev v, v))
            (true, first) rest)

let pp fmt g =
  let edges = Kmap.fold (fun _ e acc -> acc + Kset.cardinal e.ancestors) g 0 in
  Format.fprintf fmt "dag(%d nodes, %d edges)" (size g) edges
