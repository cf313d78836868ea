(** Canonical-state interning: hash once at key-construction time,
    compare by cached hash (and, in the striped table, by compact id)
    afterwards.

    The checker's memo table and the fuzzer's coverage tracker bucket
    canonical states with a deep structural hash
    ([Hashtbl.hash_param 150 600]); a plain [Hashtbl] recomputes it on
    every [find_opt]/[add] pair. A {!hashed} key carries the hash it
    was built with, so every later operation — bucketing, the
    equality prefilter, stripe selection — reuses the one traversal.
    Structural equality remains the backstop on hash collision: two
    distinct states with equal hashes are never conflated (pinned in
    [test_mc.ml]). *)

type 'a hashed = private { ih : int;  (** the cached hash *) iv : 'a }

val hashed : ('a -> int) -> 'a -> 'a hashed
(** [hashed hash v] computes [hash v] once and packages it with [v]. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool
  (** Structural equality — consulted only when two keys' cached
      hashes already agree. *)
end

module Table (K : KEY) : Hashtbl.S with type key = K.t hashed
(** A single-domain hash table over cached-hash keys: [hash] is the
    cached field (O(1)), [equal] prefilters on it before [K.equal]. *)

module Key_set : sig
  (** A set of already-hashed [int] keys (state hashes, shape
      hashes): identity hashing — the key {e is} the hash — and a
      single-probe [add_new]. The fuzzer's coverage dimensions are
      these sets; per-domain trackers merge with {!iter}. *)

  type t

  val create : int -> t
  val mem : t -> int -> bool

  val add_new : t -> int -> bool
  (** [add_new t k] inserts [k] and returns whether it was new. *)

  val length : t -> int
  val iter : (int -> unit) -> t -> unit
end

module Striped (K : KEY) : sig
  (** An N-way striped hash table with a per-stripe mutex: the shared
      visited set of the model checker. The stripe is chosen by the
      key's cached hash, so a lookup locks exactly one mutex and never
      re-hashes. The stripe index is read from hash bits 40 and up,
      which no stripe's bucket index uses, so the keys of one stripe
      spread over all of that stripe's buckets. Keys should therefore
      carry a full-width hash such as [Codec.bytes_hash]; a hash
      narrower than 41 bits stays correct but puts every key in one
      stripe. Insertions draw compact ids from a single
      atomic counter; {!length} is an O(1) read of that id watermark
      (no stripe lock), which is what lets the checker read
      [distinct_states] and enforce [max_states] cheaply. *)

  type 'v t

  val create : ?stripes:int -> int -> 'v t
  (** [create ~stripes cap] makes a table of [stripes] (rounded up to
      a power of two, default 64) shards with a total initial
      capacity of [cap]. *)

  val length : 'v t -> int
  (** Total insertions so far — the compact-id watermark. *)

  val with_key : 'v t -> K.t hashed -> ('v option -> 'r * 'v option) -> 'r
  (** [with_key t k f] runs [f] under [k]'s stripe lock with the
      current binding of [k]. If [f] returns [(r, Some v)] and [k]
      was unbound, [k] is bound to [v] (and the id counter advances);
      returning [Some _] for an already-bound key raises
      [Invalid_argument]. The callback may mutate a found ['v] in
      place — the stripe lock makes that atomic with respect to every
      other access of [k]. It must not re-enter the table. *)

  val intern : 'v t -> K.t hashed -> (int -> 'v) -> 'v * bool
  (** [intern t k mk] finds [k]'s value, or binds it to [mk id] where
      [id] is a fresh compact id; returns the value and whether it
      was inserted. Atomic per key, like {!with_key}. *)

  val stripe_stats : 'v t -> Hashtbl.statistics array
  (** [Hashtbl.stats] of each stripe's in-memory table, in stripe
      order: how evenly each stripe's keys fill its buckets. *)

  val set_spill_dir : 'v t -> string -> unit
  (** Enables disk spill: {!spill} writes stripe segments under this
      directory (which must exist). *)

  val spill : 'v t -> unit
  (** Moves every stripe's in-memory bindings into its on-disk
      segment ([Codec.write_file] container), keeping only a
      per-stripe hash prefilter in memory — the memory-bounding lever
      of long campaigns. A later access whose hash the prefilter
      admits reloads that stripe's whole segment (deleting it), and
      the exact [K.equal] probe then runs in memory: a hash collision
      against a spilled key costs a reload, never a conflation.
      {!length} is unaffected — spilled keys stay counted. Raises
      [Invalid_argument] without {!set_spill_dir}, [Failure] on an
      unreadable segment. *)

  val export : 'v t -> (K.t hashed * 'v) array
  (** Every binding, spilled segments included (they are reloaded
      first) — the checkpointable image of the visited set. *)

  val import : 'v t -> (K.t hashed * 'v) array -> unit
  (** Bulk-inserts bindings (each must be fresh), advancing the id
      watermark per key — restoring an {!export} restores {!length},
      which is what makes [max_states] cumulative across resumed
      segments. *)
end
