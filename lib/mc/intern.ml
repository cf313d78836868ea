(* Canonical-state interning: hash once, then compare by cached hash
   and compact id.

   The model checker's memo table and the fuzzer's coverage tracker
   both bucket canonical states with [Hashtbl.hash_param 150 600] — a
   deep structural walk that a plain [Hashtbl] repeats on every
   [find_opt]/[add] pair (twice per fresh state). The types here make
   the hash part of the key: it is computed exactly once, when the
   key is built, and every later table operation reuses it. Equality
   prefilters on the cached hash before falling back to the caller's
   structural equality, which is the collision backstop — two
   distinct states with equal hashes stay distinct (pinned in
   test_mc.ml).

   [Striped] is the multicore variant: an N-way sharded table with a
   per-stripe mutex, the model checker's shared visited set. Each
   stripe is open-addressed: cached hashes in an [int array] probed
   linearly, keys and values in parallel arrays, so a probe compares
   ints until the cached hashes agree and allocates nothing.
   Insertion order assigns compact ids from one atomic counter, so
   [length] — the checker's [distinct_states] — is an O(1) read of
   the id watermark, with no stripe lock held.

   Stripe/slot invariant: a key's home slot in its stripe is the low
   bits of its cached hash, so the stripe index must come from bits
   that slot indexing never reads. It is taken from bits
   [stripe_shift] and up; picking it from the low bits instead would
   give every key of stripe i a home slot congruent to i — 1/stripes
   of the slots — and pile the stripe's keys into long probe runs.
   Keys therefore need a full-width hash ([Codec.bytes_hash] is 63
   bits); a narrower hash stays correct but lands every key in stripe
   0. Cached hashes must be nonnegative: -1 marks an empty slot. *)

type 'a hashed = { ih : int; iv : 'a }

let hashed hash v = { ih = hash v; iv = v }
let of_hash ih iv = { ih; iv }

module type KEY = sig
  type t

  val equal : t -> t -> bool
end

module Table (K : KEY) = Hashtbl.Make (struct
  type t = K.t hashed

  let equal a b = a.ih = b.ih && K.equal a.iv b.iv
  let hash k = k.ih
end)

module Key_set = struct
  (* A set of already-hashed int keys (state hashes, shape hashes):
     identity hashing instead of [Hashtbl.hash]'s mixing pass, and a
     single membership probe per insertion attempt. *)
  module H = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash k = k land max_int
  end)

  type t = unit H.t

  let create n = H.create n
  let mem = H.mem

  let add_new t k =
    if H.mem t k then false
    else begin
      H.add t k ();
      true
    end

  let length = H.length
  let iter f t = H.iter (fun k () -> f k) t
end

module Striped (K : KEY) = struct
  (* One stripe: an open-addressed table probed linearly. Slot [j]
     holds a key when [hs.(j) >= 0]: its cached hash, and in the
     parallel arrays its key and value. Cached hashes are nonnegative
     ([Codec.bytes_hash] folds to [max_int]), so -1 marks an empty
     slot. [ks] and [vs] stay empty until the first insertion, which
     fills them with its own key and value; at most half the slots
     are used, and a probe walks from the home slot [h land mask] to
     its key or to the first empty slot. *)
  type 'v stripe = {
    mutable hs : int array;
    mutable ks : K.t array;
    mutable vs : 'v array;
    mutable used : int;
  }

  type 'v t = {
    mask : int;
    locks : Mutex.t array;
    stripes : 'v stripe array;
    slots0 : int;  (* slots of an empty stripe *)
    count : int Atomic.t;  (* insertions so far = next compact id *)
    mutable spill_dir : string option;
    spilled : Key_set.t array;
        (* hashes of the keys currently living in each stripe's spill
           segment on disk — the membership prefilter that lets a
           lookup skip the disk when the hash cannot be spilled *)
  }

  let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

  (* see the header: disjoint from every home slot below 2^40 *)
  let stripe_shift = 40
  let stripe t (k : _ hashed) = (k.ih lsr stripe_shift) land t.mask

  let empty_stripe slots =
    { hs = Array.make slots (-1); ks = [||]; vs = [||]; used = 0 }

  let create ?(stripes = 64) cap =
    let s = pow2 (max 1 (min stripes 4096)) 1 in
    let slots0 = pow2 (2 * max 16 (cap / s)) 1 in
    {
      mask = s - 1;
      locks = Array.init s (fun _ -> Mutex.create ());
      stripes = Array.init s (fun _ -> empty_stripe slots0);
      slots0;
      count = Atomic.make 0;
      spill_dir = None;
      spilled = Array.init s (fun _ -> Key_set.create 1);
    }

  let length t = Atomic.get t.count

  (* The slot holding [k] in [s], or the empty slot a probe for it
     stops at. *)
  let rec probe s mask j (k : K.t hashed) =
    let h = Array.unsafe_get s.hs j in
    if h < 0 || (h = k.ih && K.equal (Array.unsafe_get s.ks j) k.iv) then j
    else probe s mask ((j + 1) land mask) k

  let find_slot s k =
    if k.ih < 0 then invalid_arg "Intern.Striped: negative hash";
    let mask = Array.length s.hs - 1 in
    probe s mask (k.ih land mask) k

  (* Doubles the slots and re-places every key; keys are distinct, so
     each goes to the first empty slot from its home. *)
  let grow s =
    let hs = s.hs and ks = s.ks and vs = s.vs in
    let slots = 2 * Array.length hs in
    let mask = slots - 1 in
    let hs' = Array.make slots (-1) in
    let ks' = Array.make slots ks.(0) and vs' = Array.make slots vs.(0) in
    Array.iteri
      (fun j h ->
        if h >= 0 then begin
          let rec free i =
            if hs'.(i) < 0 then i else free ((i + 1) land mask)
          in
          let i = free (h land mask) in
          hs'.(i) <- h;
          ks'.(i) <- ks.(j);
          vs'.(i) <- vs.(j)
        end)
      hs;
    s.hs <- hs';
    s.ks <- ks';
    s.vs <- vs'

  (* binds [k] at [j], the empty slot [find_slot] returned for it *)
  let add_at s j (k : K.t hashed) v =
    if Array.length s.ks = 0 then begin
      s.ks <- Array.make (Array.length s.hs) k.iv;
      s.vs <- Array.make (Array.length s.hs) v
    end;
    s.hs.(j) <- k.ih;
    s.ks.(j) <- k.iv;
    s.vs.(j) <- v;
    s.used <- s.used + 1;
    if 2 * s.used > Array.length s.hs then grow s

  let add s k v = add_at s (find_slot s k) k v

  let fold_stripe f s acc =
    let acc = ref acc in
    Array.iteri
      (fun j h ->
        if h >= 0 then acc := f { ih = h; iv = s.ks.(j) } s.vs.(j) !acc)
      s.hs;
    !acc

  (* ---- disk spill of cold stripes ------------------------------- *)

  (* Invariant per stripe: a key is bound either in the in-memory
     table or in the spill segment, never both, and [spilled.(i)]
     holds exactly the hashes of the on-disk bindings. Spilling
     appends the in-memory bindings to the segment and empties the
     table; any access whose hash the prefilter admits reloads the
     whole segment (exact [K.equal] probing then happens in memory,
     so hash collisions against spilled keys cost a reload, never a
     conflation), after which the segment is deleted. *)

  let spill_version = 1

  let spill_path dir i = Filename.concat dir (Printf.sprintf "stripe_%04d.bin" i)

  let read_spill path : (K.t hashed * 'v) array =
    match Codec.read_file ~path ~version:spill_version with
    | Ok pairs -> pairs
    | Error e ->
      failwith
        (Printf.sprintf "Intern.Striped: unreadable spill segment %s: %s" path
           (Codec.error_to_string e))

  (* caller holds the stripe lock *)
  let reload_locked t i =
    if Key_set.length t.spilled.(i) > 0 then begin
      let dir = Option.get t.spill_dir in
      let path = spill_path dir i in
      Array.iter (fun (k, v) -> add t.stripes.(i) k v) (read_spill path);
      t.spilled.(i) <- Key_set.create 1;
      try Sys.remove path with Sys_error _ -> ()
    end

  (* caller holds the stripe lock *)
  let maybe_reload_locked t i ih =
    if Key_set.length t.spilled.(i) > 0 && Key_set.mem t.spilled.(i) ih then
      reload_locked t i

  let set_spill_dir t dir = t.spill_dir <- Some dir

  let spill t =
    match t.spill_dir with
    | None -> invalid_arg "Intern.Striped.spill: no spill directory set"
    | Some dir ->
      for i = 0 to t.mask do
        Mutex.protect t.locks.(i) (fun () ->
            let s = t.stripes.(i) in
            if s.used > 0 then begin
              let mem = fold_stripe (fun k v acc -> (k, v) :: acc) s [] in
              let prev =
                if Key_set.length t.spilled.(i) > 0 then
                  Array.to_list (read_spill (spill_path dir i))
                else []
              in
              Codec.write_file ~path:(spill_path dir i) ~version:spill_version
                (Array.of_list (List.rev_append mem prev));
              List.iter
                (fun ((k : K.t hashed), _) ->
                  ignore (Key_set.add_new t.spilled.(i) k.ih : bool))
                mem;
              t.stripes.(i) <- empty_stripe t.slots0
            end)
      done

  (* ---- core operations ------------------------------------------ *)

  let with_key t k f =
    let i = stripe t k in
    Mutex.protect t.locks.(i) (fun () ->
        maybe_reload_locked t i k.ih;
        let s = t.stripes.(i) in
        let j = find_slot s k in
        let bound = if s.hs.(j) < 0 then None else Some s.vs.(j) in
        let r, insert = f bound in
        (match (insert, bound) with
        | Some v, None ->
          add_at s j k v;
          Atomic.incr t.count
        | Some _, Some _ ->
          invalid_arg "Intern.Striped.with_key: key already bound"
        | None, _ -> ());
        r)

  let intern t k mk =
    let i = stripe t k in
    Mutex.protect t.locks.(i) (fun () ->
        maybe_reload_locked t i k.ih;
        let s = t.stripes.(i) in
        let j = find_slot s k in
        if s.hs.(j) >= 0 then (s.vs.(j), false)
        else begin
          (* the id is drawn under the stripe lock, but from the shared
             counter, so ids are unique across stripes *)
          let id = Atomic.fetch_and_add t.count 1 in
          let v = mk id in
          add_at s j k v;
          (v, true)
        end)

  type probe_stats = { keys : int; slots : int; longest : int; mean : float }

  (* A key's displacement is how many slots past its home slot it
     sits: the extra probes every lookup of it pays. *)
  let stripe_stats t =
    Array.mapi
      (fun i s ->
        Mutex.protect t.locks.(i) (fun () ->
            let mask = Array.length s.hs - 1 in
            let longest = ref 0 and total = ref 0 in
            Array.iteri
              (fun j h ->
                if h >= 0 then begin
                  let d = (j - (h land mask)) land mask in
                  longest := max !longest d;
                  total := !total + d
                end)
              s.hs;
            {
              keys = s.used;
              slots = mask + 1;
              longest = !longest;
              mean =
                (if s.used = 0 then 0.
                 else float_of_int !total /. float_of_int s.used);
            }))
      t.stripes

  (* ---- checkpoint image ----------------------------------------- *)

  let export t =
    let acc = ref [] in
    for i = t.mask downto 0 do
      Mutex.protect t.locks.(i) (fun () ->
          reload_locked t i;
          acc := fold_stripe (fun k v l -> (k, v) :: l) t.stripes.(i) !acc)
    done;
    Array.of_list !acc

  let import t pairs =
    Array.iter
      (fun (k, v) ->
        with_key t k (fun bound ->
            match bound with
            | Some _ -> invalid_arg "Intern.Striped.import: key already bound"
            | None -> ((), Some v)))
      pairs
end
