(* Byte-level primitives behind the packed canonical-state encoding
   and the campaign checkpoint files.

   Three layers, all generic (the config-shaped encoding itself lives
   in [Mc.Make.Packed], because the config type is functor-local):

   - varints: LEB128 unsigned integers, the only number format the
     packed encoding uses — pool indices and channel lengths are
     small, so most fields cost one byte;
   - interning pools: structural-hash dictionaries mapping distinct
     values (process states, message payloads) to dense indices, with
     the inverse array for decoding. A campaign sees few distinct
     per-process states relative to distinct configurations, which is
     what makes index-per-slot encodings ~10x smaller than the heap
     graphs they replace;
   - the checkpoint container: magic + schema version + MD5 digest +
     [Marshal] payload, with every validation step (magic, version,
     digest) performed *before* [Marshal.from_bytes] ever runs, so a
     corrupt or stale file surfaces as a typed [error], never a
     segfault. *)

(* ---------------------------------------------------------------- *)
(* Hashing                                                           *)
(* ---------------------------------------------------------------- *)

(* FNV-1a over the whole byte string, folded to a nonnegative OCaml
   int. Unlike [Hashtbl.hash], this reads every byte: two packed
   states differing only deep inside a long channel still get
   different hashes with overwhelming probability — and when they do
   collide, [Bytes.equal] is the exact backstop. The offset basis is
   the 64-bit FNV one truncated to OCaml's 63-bit int range;
   multiplication wraps in native int arithmetic. *)
let fnv_basis = 0x2bf29ce484222325
let fnv_prime = 0x100000001b3

let bytes_hash (b : Bytes.t) =
  let h = ref fnv_basis in
  for i = 0 to Bytes.length b - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * fnv_prime
  done;
  !h land max_int

(* ---------------------------------------------------------------- *)
(* Varints                                                           *)
(* ---------------------------------------------------------------- *)

(* Pool indices and queue lengths are mostly below 128: one byte,
   written without the loop. *)
let write_varint buf n =
  if n < 0 then invalid_arg "Codec.write_varint: negative";
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    let n = ref n in
    while !n >= 0x80 do
      Buffer.add_char buf (Char.unsafe_chr (!n land 0x7f lor 0x80));
      n := !n lsr 7
    done;
    Buffer.add_char buf (Char.unsafe_chr !n)
  end

(* A reusable byte buffer that folds each byte into [bytes_hash]'s
   FNV-1a as it is written: a key written through it costs one pass
   and one copy, and [hash] equals [bytes_hash] of [contents]. *)
module Scratch = struct
  type t = { mutable buf : Bytes.t; mutable len : int; mutable fnv : int }

  let create () = { buf = Bytes.create 64; len = 0; fnv = fnv_basis }

  let reset t =
    t.len <- 0;
    t.fnv <- fnv_basis

  let byte t c =
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr c);
    t.len <- t.len + 1;
    t.fnv <- (t.fnv lxor c) * fnv_prime

  let rec put t n =
    if n < 0x80 then byte t n
    else begin
      byte t (n land 0x7f lor 0x80);
      put t (n lsr 7)
    end

  (* [write_varint]'s bytes; a 63-bit varint is at most 9 of them *)
  let varint t n =
    if n < 0 then invalid_arg "Codec.Scratch.varint: negative";
    if t.len + 9 > Bytes.length t.buf then begin
      let buf = Bytes.create (2 * Bytes.length t.buf) in
      Bytes.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end;
    put t n

  let contents t = Bytes.sub t.buf 0 t.len
  let hash t = t.fnv land max_int
end

(* [read_varint b pos] reads at [!pos], advancing it. Raises
   [Invalid_argument] past the end — callers decoding trusted,
   digest-verified bytes treat that as a programming error. *)
let read_varint b pos =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let c = Char.code (Bytes.get b !pos) in
    incr pos;
    n := !n lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    if c land 0x80 = 0 then continue := false
  done;
  !n

(* ---------------------------------------------------------------- *)
(* Interning pools                                                   *)
(* ---------------------------------------------------------------- *)

module Pool = struct
  (* Distinct values to dense indices, first-seen order. The forward
     map hashes values to the depth the checker's own structural
     hashes use ([Hashtbl.hash_param 150 600], as in [Mc.config_hash]
     and [Intern]): the generic [Hashtbl] reads only the first 10
     meaningful words, and automaton states that differ only deeper
     than that would all share a few buckets, so every intern would
     walk a long chain of structural compares. Two values that still
     collide share a bucket but keep distinct indices, because bucket
     membership is resolved by structural comparison — the collision
     backstop (pinned in test_codec.ml).

     The table is instantiated once over [Obj.t] so the pool stays
     polymorphic; keys are only ever hashed and compared, never cast
     back (the inverse map is the typed [arr]). Its bindings and
     bucket array are the generic [Hashtbl]'s, word for word, so the
     pool's footprint (B12) is unchanged. *)
  module Ix = Hashtbl.Make (struct
    type t = Obj.t

    let equal a b = compare a b = 0
    let hash v = Hashtbl.hash_param 150 600 v
  end)

  type 'a t = {
    ix : int Ix.t;
    mutable arr : 'a array;
    mutable len : int;
  }

  let create () = { ix = Ix.create 256; arr = [||]; len = 0 }
  let length p = p.len

  let intern p v =
    match Ix.find_opt p.ix (Obj.repr v) with
    | Some i -> i
    | None ->
      let i = p.len in
      if i >= Array.length p.arr then begin
        let cap = max 16 (2 * Array.length p.arr) in
        let arr = Array.make cap v in
        Array.blit p.arr 0 arr 0 p.len;
        p.arr <- arr
      end;
      p.arr.(i) <- v;
      p.len <- i + 1;
      Ix.add p.ix (Obj.repr v) i;
      i

  let get p i =
    if i < 0 || i >= p.len then invalid_arg "Codec.Pool.get: bad index";
    p.arr.(i)

  let export p = Array.sub p.arr 0 p.len

  (* Rebuilds a pool whose indices are exactly the array positions —
     the resume path, where restored packed keys must keep decoding
     to the states they encoded. *)
  let import a =
    let p = create () in
    Array.iter (fun v -> ignore (intern p v : int)) a;
    p
end

(* ---------------------------------------------------------------- *)
(* Checkpoint container                                              *)
(* ---------------------------------------------------------------- *)

type error =
  | Bad_magic
  | Bad_version of int  (** version found in the file *)
  | Params_mismatch of string
      (** well-formed file for a different campaign (the caller's
          fingerprint check) *)
  | Corrupt of string

let pp_error fmt = function
  | Bad_magic -> Format.fprintf fmt "not a checkpoint file (bad magic)"
  | Bad_version v ->
    Format.fprintf fmt "unsupported checkpoint schema version %d" v
  | Params_mismatch d ->
    Format.fprintf fmt "checkpoint belongs to a different campaign: %s" d
  | Corrupt d -> Format.fprintf fmt "corrupt checkpoint: %s" d

let error_to_string e = Format.asprintf "%a" pp_error e

let magic = "NUCCKPT\n"

(* File layout: magic (8 bytes) | version (varint) | payload length
   (varint) | MD5 digest of the payload (16 bytes) | payload
   ([Marshal] of the caller's value). The write is atomic (temp file
   + rename), so a kill mid-write leaves the previous checkpoint
   intact rather than a truncated file. The rename runs only once
   [close_out] has flushed every byte: an error from the last flush
   (a full disk) removes the temp file and re-raises, and the previous
   file stays in place. *)
let write_file ~path ~version v =
  let payload = Marshal.to_bytes v [] in
  let buf = Buffer.create (Bytes.length payload + 64) in
  Buffer.add_string buf magic;
  write_varint buf version;
  write_varint buf (Bytes.length payload);
  Buffer.add_string buf (Digest.bytes payload);
  Buffer.add_bytes buf payload;
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    (try
       Buffer.output_buffer oc buf;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp path
  with Sys_error reason ->
    raise (Sys_error (Printf.sprintf "cannot write %s: %s" path reason))

let read_file ~path ~version =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let b = Bytes.create len in
        really_input ic b 0 len;
        b)
  with
  | exception Sys_error d -> Error (Corrupt d)
  | exception End_of_file -> Error (Corrupt "truncated file")
  | b ->
    let mlen = String.length magic in
    if Bytes.length b < mlen || Bytes.sub_string b 0 mlen <> magic then
      Error Bad_magic
    else begin
      let pos = ref mlen in
      match
        let v = read_varint b pos in
        let plen = read_varint b pos in
        (v, plen)
      with
      | exception _ -> Error (Corrupt "truncated header")
      | v, _ when v <> version -> Error (Bad_version v)
      | _, plen ->
        if Bytes.length b - !pos <> 16 + plen then
          Error (Corrupt "payload length mismatch")
        else begin
          let digest = Bytes.sub_string b !pos 16 in
          let payload = Bytes.sub b (!pos + 16) plen in
          if Digest.bytes payload <> digest then
            Error (Corrupt "payload digest mismatch")
          else
            (* the digest matched, so these are the bytes [write_file]
               marshalled — [from_bytes] is safe to run *)
            match Marshal.from_bytes payload 0 with
            | v -> Ok v
            | exception _ -> Error (Corrupt "unreadable payload")
        end
    end
