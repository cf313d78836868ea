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
   per-stripe mutex, the model checker's shared visited set.
   Insertion order assigns compact ids from one atomic counter, so
   [length] — the checker's [distinct_states] — is an O(1) read of
   the id watermark, with no stripe lock held.

   Stripe/bucket invariant: a stripe's [Hashtbl] indexes its buckets
   by the low bits of the cached hash, so the stripe index must come
   from bits that bucket indexing never reads. It is taken from bits
   [stripe_shift] and up; picking it from the low bits instead would
   confine every key of stripe i to the buckets whose index is
   congruent to i — 1/stripes of them — and multiply every chain by
   the stripe count. Keys therefore need a full-width hash
   ([Codec.bytes_hash] is 63 bits); a narrower hash stays correct but
   lands every key in stripe 0. *)

type 'a hashed = { ih : int; iv : 'a }

let hashed hash v = { ih = hash v; iv = v }

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
  module T = Table (K)

  type 'v t = {
    mask : int;
    locks : Mutex.t array;
    tables : 'v T.t array;
    count : int Atomic.t;  (* insertions so far = next compact id *)
    mutable spill_dir : string option;
    spilled : Key_set.t array;
        (* hashes of the keys currently living in each stripe's spill
           segment on disk — the membership prefilter that lets a
           lookup skip the disk when the hash cannot be spilled *)
  }

  let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

  (* see the header: disjoint from every bucket index below 2^40 *)
  let stripe_shift = 40
  let stripe t (k : _ hashed) = (k.ih lsr stripe_shift) land t.mask

  let create ?(stripes = 64) cap =
    let s = pow2 (max 1 (min stripes 4096)) 1 in
    {
      mask = s - 1;
      locks = Array.init s (fun _ -> Mutex.create ());
      tables = Array.init s (fun _ -> T.create (max 16 (cap / s)));
      count = Atomic.make 0;
      spill_dir = None;
      spilled = Array.init s (fun _ -> Key_set.create 1);
    }

  let length t = Atomic.get t.count

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
      Array.iter (fun (k, v) -> T.add t.tables.(i) k v) (read_spill path);
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
        let m = t.locks.(i) in
        Mutex.lock m;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock m)
          (fun () ->
            if T.length t.tables.(i) > 0 then begin
              let mem = T.fold (fun k v acc -> (k, v) :: acc) t.tables.(i) [] in
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
              T.reset t.tables.(i)
            end)
      done

  (* ---- core operations ------------------------------------------ *)

  let with_key t k f =
    let i = stripe t k in
    let m = t.locks.(i) in
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        maybe_reload_locked t i k.ih;
        let bound = T.find_opt t.tables.(i) k in
        let r, insert = f bound in
        (match (insert, bound) with
        | Some v, None ->
          T.add t.tables.(i) k v;
          Atomic.incr t.count
        | Some _, Some _ ->
          invalid_arg "Intern.Striped.with_key: key already bound"
        | None, _ -> ());
        r)

  let intern t k mk =
    let i = stripe t k in
    let m = t.locks.(i) in
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        maybe_reload_locked t i k.ih;
        match T.find_opt t.tables.(i) k with
        | Some v -> (v, false)
        | None ->
          (* the id is drawn under the stripe lock, but from the shared
             counter, so ids are unique across stripes *)
          let id = Atomic.fetch_and_add t.count 1 in
          let v = mk id in
          T.add t.tables.(i) k v;
          (v, true))

  let stripe_stats t =
    Array.mapi
      (fun i tbl ->
        Mutex.lock t.locks.(i);
        Fun.protect ~finally:(fun () -> Mutex.unlock t.locks.(i)) (fun () ->
            T.stats tbl))
      t.tables

  (* ---- checkpoint image ----------------------------------------- *)

  let export t =
    let acc = ref [] in
    for i = t.mask downto 0 do
      let m = t.locks.(i) in
      Mutex.lock m;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock m)
        (fun () ->
          reload_locked t i;
          acc := T.fold (fun k v l -> (k, v) :: l) t.tables.(i) !acc)
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
