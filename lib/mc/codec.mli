(** Byte-level primitives behind the packed canonical-state encoding
    ([Mc.Make.Packed]) and the campaign checkpoint files: varints,
    interning pools, a full-width byte hash, and a validated
    magic + version + digest + [Marshal] container. See DESIGN.md §5g
    for the codec layout and the checkpoint format. *)

val bytes_hash : Bytes.t -> int
(** FNV-1a over every byte, folded nonnegative. The hash the interned
    packed tables cache — unlike [Hashtbl.hash] it reads the whole
    string, and [Bytes.equal] remains the exact collision backstop. *)

val write_varint : Buffer.t -> int -> unit
(** LEB128 unsigned varint. Raises [Invalid_argument] on negatives. *)

val read_varint : Bytes.t -> int ref -> int
(** Reads at the position ref, advancing it. Raises past the end —
    only ever run on digest-verified bytes, where that is a bug, not
    an input error. *)

(** Interning pools: distinct values to dense first-seen indices, with
    the inverse array for decoding. Values are hashed to the checker's
    structural depth ([Hashtbl.hash_param 150 600]), not the stdlib
    table's 10 meaningful words, with structural comparison as the
    bucket resolver, so values that collide even at that depth get
    distinct indices (pinned in test_codec.ml). *)
module Pool : sig
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int

  val intern : 'a t -> 'a -> int
  (** The value's index, allocating the next dense index on first
      sight. *)

  val get : 'a t -> int -> 'a
  (** Inverse of {!intern}. Raises [Invalid_argument] out of range. *)

  val export : 'a t -> 'a array
  (** Values in index order — the checkpointable image. *)

  val import : 'a array -> 'a t
  (** Rebuilds a pool with indices equal to array positions, so packed
      keys written before a checkpoint keep decoding identically after
      a resume. *)
end

type error =
  | Bad_magic
  | Bad_version of int  (** version found in the file *)
  | Params_mismatch of string
      (** well-formed checkpoint for a different campaign — produced
          by the callers' fingerprint checks, not by {!read_file} *)
  | Corrupt of string
      (** truncated file, digest mismatch, unreadable payload *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val write_file : path:string -> version:int -> 'a -> unit
(** Writes [magic | version | payload length | MD5 digest | Marshal
    payload] atomically (temp file + rename): a kill mid-write leaves
    the previous checkpoint intact. *)

val read_file : path:string -> version:int -> ('a, error) result
(** Validates magic, schema version and payload digest {e before}
    unmarshalling, so corrupt or stale files produce a typed [error]
    rather than a [Marshal] segfault. The ['a] is the caller's
    payload type; the digest guarantees the bytes are exactly what
    some {!write_file} produced, and the callers' fingerprint checks
    guarantee it was a checkpoint of the same campaign shape. *)
