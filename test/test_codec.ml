(* Tests for the packed canonical-state codec (lib/mc/codec.ml +
   Mc.Make.Packed) and the campaign checkpoint machinery: varint and
   container round-trips, pool interning, packed encode/decode as
   verified inverses over sampled reachable configs, crafted hash
   collisions through the packed striped table (spill included), and
   kill/resume equality of checkpointed mc campaigns. *)
open Procset

module M_anuc = Mc.Make (Core.Anuc)

(* -------------------------------------------------------------- *)
(* Varints                                                        *)
(* -------------------------------------------------------------- *)

let varint_round_trip n =
  let buf = Buffer.create 16 in
  Mc.Codec.write_varint buf n;
  let b = Buffer.to_bytes buf in
  let pos = ref 0 in
  let n' = Mc.Codec.read_varint b pos in
  n' = n && !pos = Bytes.length b

let test_varint_units () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "varint %d round-trips" n)
        true (varint_round_trip n))
    [ 0; 1; 127; 128; 129; 16383; 16384; 1 lsl 30; max_int ];
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Codec.write_varint: negative") (fun () ->
      Mc.Codec.write_varint (Buffer.create 4) (-1))

let test_varint_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"varint round-trip" ~count:500
       QCheck.(int_bound max_int)
       varint_round_trip)

let test_varint_concatenation () =
  (* several varints written back to back read out in order — the
     packed encoding is one long varint sequence *)
  let ns = [ 0; 300; 7; 128; 99999; 1 ] in
  let buf = Buffer.create 32 in
  List.iter (Mc.Codec.write_varint buf) ns;
  let b = Buffer.to_bytes buf in
  let pos = ref 0 in
  let ns' = List.map (fun _ -> Mc.Codec.read_varint b pos) ns in
  Alcotest.(check (list int)) "sequence round-trips" ns ns';
  Alcotest.(check int) "all bytes consumed" (Bytes.length b) !pos

(* -------------------------------------------------------------- *)
(* Hashing                                                        *)
(* -------------------------------------------------------------- *)

let test_bytes_hash () =
  let b = Bytes.of_string "packed state" in
  Alcotest.(check int)
    "deterministic" (Mc.Codec.bytes_hash b) (Mc.Codec.bytes_hash b);
  Alcotest.(check bool) "nonnegative" true (Mc.Codec.bytes_hash b >= 0);
  let b' = Bytes.copy b in
  Bytes.set b' (Bytes.length b' - 1) 'f';
  Alcotest.(check bool)
    "last byte matters" false
    (Mc.Codec.bytes_hash b = Mc.Codec.bytes_hash b')

(* -------------------------------------------------------------- *)
(* Pools                                                          *)
(* -------------------------------------------------------------- *)

(* Two values that differ only past the pool hash's 150-word horizon
   (built as test_mc.ml's crafted [Intern] collision) share a bucket;
   structural comparison must still give them distinct indices, and
   both must survive an export/import round trip. *)
let test_pool_collision_backstop () =
  let base = List.init 400 (fun i -> i) in
  let a = base @ [ 1 ] and b = base @ [ 2 ] in
  let hash = Hashtbl.hash_param 150 600 in
  Alcotest.(check int) "the crafted collision is real" (hash a) (hash b);
  let p = Mc.Codec.Pool.create () in
  let ia = Mc.Codec.Pool.intern p a in
  let ib = Mc.Codec.Pool.intern p b in
  Alcotest.(check bool) "distinct indices" true (ia <> ib);
  Alcotest.(check int) "re-intern is a hit" ia (Mc.Codec.Pool.intern p a);
  Alcotest.(check int) "both counted" 2 (Mc.Codec.Pool.length p);
  let check_inverts tag p =
    Alcotest.(check (list int)) (tag ^ ": get inverts a") a
      (Mc.Codec.Pool.get p ia);
    Alcotest.(check (list int)) (tag ^ ": get inverts b") b
      (Mc.Codec.Pool.get p ib)
  in
  check_inverts "pool" p;
  let q = Mc.Codec.Pool.import (Mc.Codec.Pool.export p) in
  Alcotest.(check int) "import keeps both" 2 (Mc.Codec.Pool.length q);
  check_inverts "imported" q;
  Alcotest.(check (pair int int)) "imported forward map" (ia, ib)
    (Mc.Codec.Pool.intern q a, Mc.Codec.Pool.intern q b)

let test_pool () =
  let p = Mc.Codec.Pool.create () in
  let i0 = Mc.Codec.Pool.intern p "a" in
  let i1 = Mc.Codec.Pool.intern p "b" in
  let i0' = Mc.Codec.Pool.intern p "a" in
  Alcotest.(check int) "first index 0" 0 i0;
  Alcotest.(check int) "second index 1" 1 i1;
  Alcotest.(check int) "re-intern returns the same index" i0 i0';
  Alcotest.(check int) "length counts distinct" 2 (Mc.Codec.Pool.length p);
  Alcotest.(check string) "get inverts" "b" (Mc.Codec.Pool.get p i1);
  let q = Mc.Codec.Pool.import (Mc.Codec.Pool.export p) in
  Alcotest.(check int) "import preserves length" 2 (Mc.Codec.Pool.length q);
  Alcotest.(check string) "import preserves indices" "a"
    (Mc.Codec.Pool.get q 0);
  Alcotest.(check int) "import preserves forward map" 1
    (Mc.Codec.Pool.intern q "b");
  Alcotest.check_raises "bad index rejected"
    (Invalid_argument "Codec.Pool.get: bad index") (fun () ->
      ignore (Mc.Codec.Pool.get p 2))

(* -------------------------------------------------------------- *)
(* Container                                                      *)
(* -------------------------------------------------------------- *)

let with_temp f =
  let path = Filename.temp_file "nuc_codec" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_container_round_trip () =
  with_temp (fun path ->
      let v = ([ 1; 2; 3 ], "payload", Some 4.5) in
      Mc.Codec.write_file ~path ~version:3 v;
      match Mc.Codec.read_file ~path ~version:3 with
      | Ok v' ->
        Alcotest.(check bool) "value round-trips" true (v = v')
      | Error e -> Alcotest.failf "read: %s" (Mc.Codec.error_to_string e))

let test_container_bad_magic () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTACKPT and then some bytes";
      close_out oc;
      match Mc.Codec.read_file ~path ~version:1 with
      | Error Mc.Codec.Bad_magic -> ()
      | Ok _ -> Alcotest.fail "bad magic accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Mc.Codec.error_to_string e))

let test_container_bad_version () =
  with_temp (fun path ->
      Mc.Codec.write_file ~path ~version:7 "x";
      match Mc.Codec.read_file ~path ~version:8 with
      | Error (Mc.Codec.Bad_version 7) -> ()
      | Ok _ -> Alcotest.fail "wrong version accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Mc.Codec.error_to_string e))

let flip_byte path i =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let i = if i < 0 then len + i else i in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_container_corrupt_payload () =
  with_temp (fun path ->
      Mc.Codec.write_file ~path ~version:1 [ "some"; "payload"; "value" ];
      flip_byte path (-1);
      match Mc.Codec.read_file ~path ~version:1 with
      | Error (Mc.Codec.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "corrupt payload accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Mc.Codec.error_to_string e))

let test_container_truncated () =
  with_temp (fun path ->
      Mc.Codec.write_file ~path ~version:1 (Array.init 100 string_of_int);
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let b = Bytes.create (len / 2) in
      really_input ic b 0 (len / 2);
      close_in ic;
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      match Mc.Codec.read_file ~path ~version:1 with
      | Error (Mc.Codec.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "truncated file accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Mc.Codec.error_to_string e))

(* -------------------------------------------------------------- *)
(* Packed encode/decode round-trip over reachable configs          *)
(* -------------------------------------------------------------- *)

(* The E11 universe (see test_mc.ml), plus its lossy variant so the
   round-trip battery covers drop-perturbed channels and every
   detector-menu value in the family. *)
let n = 3
let faulty = Pset.singleton 2
let proposals p = if Pset.mem p faulty then 1 else 0

(* A deterministic random walk of [steps] moves from the initial
   config: the initial config, then each move taken with the config it
   left and the config it reached. *)
let walk ?(delivery = `Fifo) ~menu ~lossy ~steps seed =
  let menus = Array.init n (fun p -> menu.Mc.Menu.values p) in
  let rng = Random.State.make [| seed |] in
  let root = M_anuc.Space.initial ~n ~inputs:proposals in
  let rec go k cfg acc =
    match M_anuc.Space.enabled ~n ~delivery ~lossy ~menus cfg with
    | [] -> List.rev acc
    | _ when k = 0 -> List.rev acc
    | moves ->
      let mv = List.nth moves (Random.State.int rng (List.length moves)) in
      let child = M_anuc.Space.apply ~n cfg mv in
      go (k - 1) child ((cfg, mv, child) :: acc)
  in
  (root, go steps root [])

let walk_configs ~menu ~lossy ~steps seed =
  let root, moves = walk ~menu ~lossy ~steps seed in
  root :: List.map (fun (_, _, child) -> child) moves

(* Along a walk, under one pool: [decode] inverts [encode] and
   re-encoding is stable (the memo key is reproducible), and the
   parent-derived key [encode_child] equals the full [encode] of the
   child — which, run after it, interns nothing new. *)
let round_trip_walk ?delivery ~menu ~lossy seed =
  let pool = M_anuc.Packed.create ~n in
  let round_trip cfg b =
    let cfg' = M_anuc.Packed.decode pool b in
    M_anuc.Space.equal cfg cfg'
    && Bytes.equal b (M_anuc.Packed.encode pool cfg)
    && Mc.Codec.bytes_hash b
       = Mc.Codec.bytes_hash (M_anuc.Packed.encode pool cfg')
  in
  let root, moves = walk ?delivery ~menu ~lossy ~steps:25 seed in
  let root_key = M_anuc.Packed.encode pool root in
  round_trip root root_key
  && snd
       (List.fold_left
          (fun (key, ok) (_, mv, child) ->
            let derived =
              M_anuc.Packed.encode_child pool ~key mv child
            in
            let sizes = M_anuc.Packed.sizes pool in
            let full = M_anuc.Packed.encode pool child in
            ( derived,
              ok
              && Bytes.equal derived full
              && M_anuc.Packed.sizes pool = sizes
              && round_trip child derived ))
          (root_key, true) moves)

let test_packed_round_trip_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"decode∘encode = id on walks (contamination)"
       ~count:60 QCheck.small_nat
       (round_trip_walk
          ~menu:(Mc.Menu.contamination ~plus:true ~n ~faulty ())
          ~lossy:false))

let test_packed_round_trip_lossy_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"decode∘encode = id on lossy walks" ~count:60
       QCheck.small_nat
       (round_trip_walk ~menu:(Mc.Menu.lossy ~plus:true ~n ~faulty ()) ~lossy:true))

(* [`Any] delivery receives from anywhere in a channel, not just its
   head; with the lossy menu the walk also drops, so the child key's
   index cut is exercised off the head, on drops, and on a process
   that receives from its own channel and sends to itself again. *)
let any_lossy_menu = Mc.Menu.lossy ~plus:true ~n ~faulty ()

let test_packed_round_trip_any_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"decode∘encode = id on lossy `Any walks"
       ~count:60 QCheck.small_nat
       (round_trip_walk ~delivery:`Any ~menu:any_lossy_menu ~lossy:true))

(* [Space.self_loop] and [Space.equal] at every config a walk visits,
   for every move enabled there ([Tutil.self_loop_rule_holds]). The
   three walks reach lambda steps, off-head receives, drops and
   self-sends, so both sides of the rule are exercised. *)
let self_loop_rule_walk ?(delivery = `Fifo) ~menu ~lossy seed =
  let menus = Array.init n (fun p -> menu.Mc.Menu.values p) in
  let root, moves = walk ~delivery ~menu ~lossy ~steps:25 seed in
  List.for_all
    (fun cfg ->
      Tutil.self_loop_rule_holds
        ~self_loop:(M_anuc.Space.self_loop ~n)
        ~equal:M_anuc.Space.equal ~apply:(M_anuc.Space.apply ~n) cfg
        (M_anuc.Space.enabled ~n ~delivery ~lossy ~menus cfg))
    (root :: List.map (fun (_, _, child) -> child) moves)

let test_self_loop_rule_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"self_loop and equal agree with apply and (=)"
       ~count:40 QCheck.small_nat (fun seed ->
         self_loop_rule_walk
           ~menu:(Mc.Menu.contamination ~plus:true ~n ~faulty ())
           ~lossy:false seed
         && self_loop_rule_walk
              ~menu:(Mc.Menu.lossy ~plus:true ~n ~faulty ())
              ~lossy:true seed
         && self_loop_rule_walk ~delivery:`Any ~menu:any_lossy_menu
              ~lossy:true seed))

(* Queue length of channel [c], read back from a packed key's layout. *)
let packed_chan_len key c =
  let pos = ref 0 in
  let read () = Mc.Codec.read_varint key pos in
  for _ = 1 to n do
    ignore (read () : int)
  done;
  let rec section k =
    if k = 0 then 0
    else
      let c' = read () in
      let len = read () in
      if c' = c then len
      else begin
        for _ = 1 to len do
          ignore (read () : int)
        done;
        section (k - 1)
      end
  in
  section (read ())

(* The qcheck seeds vary from run to run; this fixed sweep over the
   same generator pins that the [`Any] walks do reach the three cases
   the child key must get right. *)
let test_any_walks_cover_cuts () =
  let seen = Hashtbl.create 3 in
  let pool = M_anuc.Packed.create ~n in
  for seed = 0 to 59 do
    let _, moves =
      walk ~delivery:`Any ~menu:any_lossy_menu ~lossy:true ~steps:25 seed
    in
    List.iter
      (fun (parent, (mv : M_anuc.move), child) ->
        match mv.M_anuc.m_recv with
        | None -> ()
        | Some (src, i) ->
          let p = mv.M_anuc.m_pid in
          if i > 0 then Hashtbl.replace seen "non-head receive" ();
          if mv.M_anuc.m_drop then Hashtbl.replace seen "drop" ();
          (* a receive from its own channel that leaves that channel
             no shorter has sent to self again *)
          let self_len cfg =
            packed_chan_len (M_anuc.Packed.encode pool cfg) ((p * n) + p)
          in
          if src = p && (not mv.M_anuc.m_drop)
             && self_len child >= self_len parent
          then Hashtbl.replace seen "self receive then self send" ())
      moves
  done;
  List.iter
    (fun case ->
      Alcotest.(check bool) (case ^ " reached") true (Hashtbl.mem seen case))
    [ "non-head receive"; "drop"; "self receive then self send" ]

let test_packed_injective () =
  (* distinct configs (by Space.equal) pack to distinct bytes, equal
     configs to equal bytes — Bytes.equal on packed = config equality *)
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let pool = M_anuc.Packed.create ~n in
  let configs = walk_configs ~menu ~lossy:false ~steps:40 11 in
  let packed = List.map (fun c -> (c, M_anuc.Packed.encode pool c)) configs in
  List.iter
    (fun (c1, b1) ->
      List.iter
        (fun (c2, b2) ->
          Alcotest.(check bool)
            "Bytes.equal iff Space.equal"
            (M_anuc.Space.equal c1 c2)
            (Bytes.equal b1 b2))
        packed)
    packed

let test_packed_decode_rejects_garbage () =
  let pool = M_anuc.Packed.create ~n in
  (* any index is out of range for an empty pool *)
  let buf = Buffer.create 8 in
  List.iter (Mc.Codec.write_varint buf) [ 5; 0; 0 ];
  match M_anuc.Packed.decode pool (Buffer.to_bytes buf) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "garbage bytes decoded"

(* -------------------------------------------------------------- *)
(* Crafted hash collisions through the packed striped table        *)
(* -------------------------------------------------------------- *)

module Bkey = struct
  type t = Bytes.t

  let equal = Bytes.equal
end

module Striped_bytes = Mc.Intern.Striped (Bkey)

let collide b = Mc.Intern.hashed (fun (_ : Bytes.t) -> 42) b

let test_striped_collisions_distinct () =
  let t = Striped_bytes.create 16 in
  let k1 = collide (Bytes.of_string "state one") in
  let k2 = collide (Bytes.of_string "state two") in
  let _, fresh1 = Striped_bytes.intern t k1 (fun id -> id) in
  let v2, fresh2 = Striped_bytes.intern t k2 (fun id -> id) in
  let v1, fresh1' = Striped_bytes.intern t k1 (fun id -> id) in
  Alcotest.(check bool) "first insert fresh" true fresh1;
  Alcotest.(check bool) "collider still fresh" true fresh2;
  Alcotest.(check bool) "re-probe not fresh" false fresh1';
  Alcotest.(check bool) "distinct ids" true (v1 <> v2);
  Alcotest.(check int) "both counted" 2 (Striped_bytes.length t)

let test_striped_collisions_through_spill () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nuc_spill_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let t = Striped_bytes.create 16 in
      Striped_bytes.set_spill_dir t dir;
      let k1 = collide (Bytes.of_string "spilled state") in
      let k2 = collide (Bytes.of_string "colliding probe") in
      ignore (Striped_bytes.intern t k1 (fun id -> id));
      Striped_bytes.spill t;
      (* a collision against a spilled key must reload, not conflate *)
      let _, fresh2 = Striped_bytes.intern t k2 (fun id -> id) in
      let _, fresh1 = Striped_bytes.intern t k1 (fun id -> id) in
      Alcotest.(check bool) "collider fresh after spill" true fresh2;
      Alcotest.(check bool) "spilled key found again" false fresh1;
      Alcotest.(check int) "both counted" 2 (Striped_bytes.length t);
      let exported = Striped_bytes.export t in
      Alcotest.(check int) "export sees both" 2 (Array.length exported))

(* Each stripe's table indexes its buckets by the low hash bits, so
   the stripe index must come from other bits: with the stripe taken
   from the low bits, the keys of stripe i all land in the buckets
   whose index is congruent to i, and a 64-way table fills 1/64 of
   each stripe's buckets. Full-width packed-state hashes must reach
   most buckets of every stripe instead. *)
let test_striped_keys_spread_over_buckets () =
  let t = Striped_bytes.create ~stripes:64 16 in
  for i = 0 to (64 * 512) - 1 do
    let b = Bytes.of_string (Printf.sprintf "packed state %d" i) in
    ignore
      (Striped_bytes.intern t (Mc.Intern.hashed Mc.Codec.bytes_hash b)
         (fun id -> id))
  done;
  Array.iteri
    (fun i (s : Hashtbl.statistics) ->
      let used = s.num_buckets - s.bucket_histogram.(0) in
      Alcotest.(check bool)
        (Printf.sprintf "stripe %d: %d of %d buckets hold its %d keys" i used
           s.num_buckets s.num_bindings)
        true
        (2 * used >= min s.num_bindings s.num_buckets))
    (Striped_bytes.stripe_stats t)

(* -------------------------------------------------------------- *)
(* Checkpoint / resume of mc campaigns                             *)
(* -------------------------------------------------------------- *)

let run_anuc ?reduction ?max_states ?checkpoint ?resume ~depth () =
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (2, depth + 1) ] in
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let props =
    M_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
      ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_anuc.decided_stop ~decision:Core.Anuc.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  M_anuc.run ?reduction ~n ~menu ~depth ~inputs:proposals ~props ~stop
    ?max_states ?checkpoint ?resume ()

(* Every [stats] field but [wall_seconds], named, so a mismatch says
   which counter moved. *)
let stats_fields (s : Mc.stats) =
  [
    ("transitions", s.Mc.transitions);
    ("distinct_states", s.Mc.distinct_states);
    ("dedup_hits", s.Mc.dedup_hits);
    ("self_loops", s.Mc.self_loops);
    ("sleep_skipped", s.Mc.sleep_skipped);
    ("races", s.Mc.races);
    ("backtracks", s.Mc.backtracks);
    ("decided_leaves", s.Mc.decided_leaves);
    ("depth_leaves", s.Mc.depth_leaves);
    ("max_depth", s.Mc.max_depth);
    ("truncated", Bool.to_int s.Mc.truncated);
  ]

let check_same_stats msg a b =
  Alcotest.(check (list (pair string int))) msg (stats_fields a)
    (stats_fields b)

(* At jobs = 1 the walk is one deterministic order, so a campaign
   killed by its budget and resumed from the checkpoint must match the
   straight run counter for counter — under dpor too, whose no-op
   cache travels in the checkpoint. *)
let test_checkpoint_resume_equality () =
  List.iter
    (fun reduction ->
      with_temp (fun path ->
          let tag s = Format.asprintf "%a: %s" Mc.pp_reduction reduction s in
          let depth = 8 in
          let straight = run_anuc ~reduction ~depth () in
          let truncated =
            run_anuc ~reduction ~depth ~max_states:500 ~checkpoint:(path, 100)
              ()
          in
          Alcotest.(check bool)
            (tag "segment truncated") true truncated.M_anuc.stats.Mc.truncated;
          Alcotest.(check bool)
            (tag "segment saw fewer states") true
            (truncated.M_anuc.stats.Mc.distinct_states
            < straight.M_anuc.stats.Mc.distinct_states);
          let resumed =
            run_anuc ~reduction ~depth ~resume:path ~checkpoint:(path, 100) ()
          in
          Alcotest.(check bool)
            (tag "resumed verdict matches straight") true
            (resumed.M_anuc.violation = None
            && straight.M_anuc.violation = None);
          check_same_stats
            (tag "resumed stats match straight")
            straight.M_anuc.stats resumed.M_anuc.stats))
    [ Mc.Sleep_sets; Mc.Dpor ]

let test_checkpoint_max_states_cumulative () =
  with_temp (fun path ->
      let depth = 8 in
      let seg1 = run_anuc ~depth ~max_states:500 ~checkpoint:(path, 100) () in
      Alcotest.(check bool)
        "first segment truncated" true seg1.M_anuc.stats.Mc.truncated;
      (* resuming under the same budget must truncate immediately:
         the imported watermark already exceeds it *)
      let seg2 =
        run_anuc ~depth ~max_states:500 ~resume:path ~checkpoint:(path, 100) ()
      in
      Alcotest.(check bool)
        "resumed segment still truncated" true seg2.M_anuc.stats.Mc.truncated;
      Alcotest.(check int)
        "no fresh exploration under an exhausted budget"
        seg1.M_anuc.stats.Mc.distinct_states
        seg2.M_anuc.stats.Mc.distinct_states)

let test_checkpoint_corrupt_rejected () =
  with_temp (fun path ->
      let depth = 8 in
      ignore (run_anuc ~depth ~max_states:500 ~checkpoint:(path, 100) ());
      flip_byte path (-1);
      match run_anuc ~depth ~resume:path () with
      | exception Mc.Resume_rejected (Mc.Codec.Corrupt _) -> ()
      | exception Mc.Resume_rejected e ->
        Alcotest.failf "wrong rejection: %s" (Mc.Codec.error_to_string e)
      | _ -> Alcotest.fail "corrupt checkpoint accepted")

let test_checkpoint_params_mismatch () =
  with_temp (fun path ->
      ignore (run_anuc ~depth:8 ~max_states:500 ~checkpoint:(path, 100) ());
      match run_anuc ~depth:7 ~resume:path () with
      | exception Mc.Resume_rejected (Mc.Codec.Params_mismatch _) -> ()
      | exception Mc.Resume_rejected e ->
        Alcotest.failf "wrong rejection: %s" (Mc.Codec.error_to_string e)
      | _ -> Alcotest.fail "campaign fingerprint mismatch accepted")

let test_checkpoint_completed_campaign () =
  with_temp (fun path ->
      let depth = 7 in
      let straight = run_anuc ~depth () in
      (* a campaign that completes writes a final checkpoint; resuming
         it finds no pending work and reproduces the verdict *)
      let finished = run_anuc ~depth ~checkpoint:(path, 1_000) () in
      check_same_stats "checkpointed run matches straight"
        straight.M_anuc.stats finished.M_anuc.stats;
      let resumed = run_anuc ~depth ~resume:path () in
      Alcotest.(check int)
        "resumed completed campaign reproduces distinct states"
        straight.M_anuc.stats.Mc.distinct_states
        resumed.M_anuc.stats.Mc.distinct_states;
      Alcotest.(check bool)
        "no violation on resume" true (resumed.M_anuc.violation = None))

let () =
  Alcotest.run "codec"
    [
      ( "varint",
        [
          Alcotest.test_case "unit round-trips" `Quick test_varint_units;
          test_varint_qcheck;
          Alcotest.test_case "concatenated sequence" `Quick
            test_varint_concatenation;
        ] );
      ( "hash",
        [ Alcotest.test_case "FNV over all bytes" `Quick test_bytes_hash ] );
      ( "pool",
        [
          Alcotest.test_case "intern/get/export/import" `Quick test_pool;
          Alcotest.test_case "collisions past the hash horizon stay distinct"
            `Quick test_pool_collision_backstop;
        ] );
      ( "container",
        [
          Alcotest.test_case "round-trip" `Quick test_container_round_trip;
          Alcotest.test_case "bad magic" `Quick test_container_bad_magic;
          Alcotest.test_case "bad version" `Quick test_container_bad_version;
          Alcotest.test_case "corrupt payload" `Quick
            test_container_corrupt_payload;
          Alcotest.test_case "truncated file" `Quick test_container_truncated;
        ] );
      ( "packed",
        [
          test_packed_round_trip_qcheck;
          test_packed_round_trip_lossy_qcheck;
          test_packed_round_trip_any_qcheck;
          Alcotest.test_case "`Any walks reach off-head, drop and self cuts"
            `Quick test_any_walks_cover_cuts;
          Alcotest.test_case "injective wrt Space.equal" `Quick
            test_packed_injective;
          Alcotest.test_case "garbage bytes rejected" `Quick
            test_packed_decode_rejects_garbage;
          test_self_loop_rule_qcheck;
        ] );
      ( "collisions",
        [
          Alcotest.test_case "crafted collisions stay distinct" `Quick
            test_striped_collisions_distinct;
          Alcotest.test_case "collisions through spill" `Quick
            test_striped_collisions_through_spill;
          Alcotest.test_case "stripes spread keys over their buckets" `Quick
            test_striped_keys_spread_over_buckets;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill/resume reproduces straight run" `Quick
            test_checkpoint_resume_equality;
          Alcotest.test_case "max-states cumulative across segments" `Quick
            test_checkpoint_max_states_cumulative;
          Alcotest.test_case "corrupt checkpoint rejected" `Quick
            test_checkpoint_corrupt_rejected;
          Alcotest.test_case "campaign fingerprint mismatch rejected" `Quick
            test_checkpoint_params_mismatch;
          Alcotest.test_case "completed campaign resumable" `Quick
            test_checkpoint_completed_campaign;
        ] );
    ]
