(* Bounded model checking of Sim automata: exhaustive exploration of
   every admissible schedule of a small universe up to a depth bound.

   The randomized runner samples interleavings; the proof scenarios
   script one interleaving by hand. This module closes the gap in
   between: for n <= 4 it walks the *whole* tree of (scheduling x
   message delivery x failure-detector value) choices, deduplicating
   confluent interleavings through canonical state memoization and
   pruning commuting step pairs with sleep sets, and evaluates safety
   properties at every reachable state.

   Abstraction. The walker's configuration is (per-process automaton
   states, per-channel pending-message multisets) — deliberately
   *without* the runner's global clock or the envelopes' seq/sent_at
   metadata, which distinguish confluent interleavings and would
   defeat memoization. This is sound for any automaton whose [step]
   depends only on the sender and payload of the received envelope
   (true of every automaton in this repository). A counterexample
   path is re-executed concretely afterwards, with real times and
   sequence numbers, into a [Runner.replay]-compatible trace.

   Failure detectors. The adversary picks, at every step, any value
   from a per-process finite menu. A menu is legal for a detector
   class when every combination of its values satisfies the class's
   *perpetual* clauses (quorum intersection, self-inclusion,
   conditional nonintersection); the "there is a time after which"
   clauses of Omega and of completeness constrain no finite prefix —
   any explored run extends to an admissible full history by
   switching the detector to a benign regime after the horizon.
   [Menu.validate] certifies legality by running the repo's own
   [Fd.Check] clauses over the dense menu history, which dominates
   every selectable run history. *)

open Procset

(* Submodules of the multicore engine, re-exported as part of the
   library interface: [Mc.Intern] (cached-hash interning tables, the
   striped shared visited set), [Mc.Codec] (packed-encoding byte
   primitives and the validated checkpoint container) and [Mc.Pool]
   (the domain pool, which lives in [Sim] so the concurrent executor
   can share it). *)
module Intern = Intern
module Codec = Codec
module Pool = Sim.Pool

(* A [?resume] file that fails validation (bad magic, wrong schema
   version, digest mismatch, different campaign fingerprint, stored
   hashes that do not re-verify) aborts the run with the typed error —
   never a [Marshal] segfault or a silent merge of two campaigns. *)
exception Resume_rejected of Codec.error

(* [Cover]: the memo-coverage record (budgets + sleep set) behind
   memoization, extracted so the domination/update logic — and its
   no-mixture invariant — lives in exactly one place. *)
module Cover = Cover

(* ---------------------------------------------------------------- *)
(* Failure-detector menus                                            *)
(* ---------------------------------------------------------------- *)

module Menu = struct
  type kind = Sigma | Sigma_nu | Sigma_nu_plus | Omega_only | Suspects_menu

  type t = {
    name : string;
    kind : kind;
    values : Pid.t -> Sim.Fd_value.t list;
    lossy : bool;
        (* when set, [Make.run] adds a message-drop alphabet to every
           transition: the network adversary may silently discard the
           deliverable message of any cross-process channel *)
  }

  let dedup_psets sets =
    List.fold_left
      (fun acc q -> if List.exists (Pset.equal q) acc then acc else q :: acc)
      [] sets
    |> List.rev

  let pair l q =
    Sim.Fd_value.Pair (Sim.Fd_value.Leader l, Sim.Fd_value.Quorum q)

  (* Omega constrains no finite prefix, so leader menus only shape the
     adversary's power: a correct process may trust any correct
     process; a faulty process may (also) trust itself. *)
  let leaders ~n ~faulty p =
    let correct = Pset.complement ~n faulty in
    let base = Pset.elements correct in
    if Pset.mem p faulty then p :: base else base

  (* A pairwise-intersecting quorum family for the Sigma-nu classes:
     a correct process outputs either the correct set C or its own
     {p} ∪ F.  Any two such quorums at correct processes intersect
     (C ∩ C, C ∩ ({p} ∪ F) ∋ p, ({p} ∪ F) ∩ ({q} ∪ F) ⊇ F ≠ ∅); a
     faulty process is unconstrained by Sigma-nu and outputs all-faulty
     quorums, which conditional nonintersection exempts. Every quorum
     contains its owner, so the family is also Sigma-nu+-legal. *)
  let nu_quorums ~n ~faulty p =
    let correct = Pset.complement ~n faulty in
    if Pset.mem p faulty then dedup_psets [ Pset.singleton p; faulty ]
    else if Pset.is_empty faulty then [ correct ]
    else dedup_psets [ correct; Pset.add p faulty ]

  (* Uniform Sigma: every quorum, even at faulty processes, must
     intersect every other; all menu quorums contain the pivot. *)
  let sigma_quorums ~n ~faulty p =
    let correct = Pset.complement ~n faulty in
    let pivot = Pset.min_elt correct in
    dedup_psets [ correct; Pset.of_list [ pivot; p ] ]

  let cross ~n ~faulty quorums p =
    List.concat_map
      (fun l -> List.map (pair l) (quorums ~n ~faulty p))
      (leaders ~n ~faulty p)

  let omega_sigma_nu ~n ~faulty =
    {
      name = "(Omega, Sigma-nu) adversarial";
      kind = Sigma_nu;
      values = cross ~n ~faulty nu_quorums;
      lossy = false;
    }

  let omega_sigma_nu_plus ~n ~faulty =
    {
      name = "(Omega, Sigma-nu+) adversarial";
      kind = Sigma_nu_plus;
      values = cross ~n ~faulty nu_quorums;
      lossy = false;
    }

  let omega_sigma ~n ~faulty =
    {
      name = "(Omega, Sigma) pivot";
      kind = Sigma;
      values = cross ~n ~faulty sigma_quorums;
      lossy = false;
    }

  (* The focused Sigma-nu sub-family behind the Section 6.3
     contamination argument: the lowest correct process is pinned to
     (its own leadership, the correct set); every other correct
     process may switch between the correct set and its own
     {p} ∪ F quorum; faulty processes see themselves. All quorums at
     correct processes pairwise intersect, so the family is
     Sigma-nu-legal — yet the {p} ∪ F switch lets a faulty process
     contaminate round boundaries. Exhaustive search under this menu
     is what separates A_nuc from the naive Sigma-nu baseline. *)
  let contamination ?(plus = false) ?quorum ~n ~faulty () =
    let correct = Pset.complement ~n faulty in
    let c0 = Pset.min_elt correct in
    match quorum with
    | None ->
      {
        name =
          Printf.sprintf "(Omega, Sigma-nu%s) contamination family"
            (if plus then "+" else "");
        kind = (if plus then Sigma_nu_plus else Sigma_nu);
        values =
          (fun p ->
            if Pset.mem p faulty then [ pair p (Pset.singleton p) ]
            else if p = c0 then [ pair c0 correct ]
            else dedup_psets [ correct; Pset.add p faulty ]
                 |> List.map (pair p));
        lossy = false;
      }
    | Some fam ->
      (* The same switchable-escape structure, with the correct set
         generalized to the family's minimal quorums (grown inside
         [correct] when the correct set is itself a quorum, inside
         [Pi] otherwise). Each offered quorum gets its owner added
         (monotone families keep it a quorum, and Sigma-nu+ needs
         self-inclusion); min-quorums pairwise intersect by the
         family's uniform intersection law. The {p} ∪ F escape is
         offered to every correct process where it stays
         Sigma-nu-legal — it must meet every family quorum offered to
         the other correct processes, i.e. every min-quorum must
         contain p or touch F. (Unlike the unparameterized menu, c0 is
         not pinned: families like super:1 or grids have a single
         min-quorum that contains the faulty side, and only the escape
         at the lowest correct process keeps a contamination schedule
         expressible at all.) Faulty processes keep their all-faulty
         self-quorum, which conditional nonintersection exempts. *)
      ignore c0;
      let pool =
        if Quorum_family.is_quorum fam ~n correct then correct
        else Pset.full ~n
      in
      let qs = Quorum_family.min_quorums fam ~n ~within:pool in
      let escape_ok p =
        qs <> []
        && List.for_all
             (fun q -> Pset.mem p q || not (Pset.disjoint q faulty))
             qs
      in
      {
        name =
          Printf.sprintf "(Omega, Sigma-nu%s) contamination family [%s]"
            (if plus then "+" else "")
            (Quorum_family.name fam);
        kind = (if plus then Sigma_nu_plus else Sigma_nu);
        values =
          (fun p ->
            if Pset.mem p faulty then [ pair p (Pset.singleton p) ]
            else
              let own = List.map (Pset.add p) qs in
              let own =
                if escape_ok p && not (Pset.is_empty faulty) then
                  own @ [ Pset.add p faulty ]
                else own
              in
              dedup_psets own |> List.map (pair p));
        lossy = false;
      }

  (* The contamination family over lossy links: identical detector
     menus, but every transition additionally offers the network the
     choice of silently dropping a deliverable cross-process message.
     Detector legality is untouched — [validate] certifies the same
     clauses — while the schedule space strictly contains the
     loss-free one, so a loss-free counterexample survives and a
     loss-free exhaustiveness claim is strengthened. *)
  let lossy ?plus ?quorum ~n ~faulty () =
    let base = contamination ?plus ?quorum ~n ~faulty () in
    { base with name = base.name ^ " + lossy links"; lossy = true }

  let leader_only ~n ~faulty =
    {
      name = "Omega adversarial";
      kind = Omega_only;
      values =
        (fun p ->
          List.map (fun l -> Sim.Fd_value.Leader l) (leaders ~n ~faulty p));
      lossy = false;
    }

  let suspects ~n ~faulty =
    {
      name = "<>S adversarial";
      kind = Suspects_menu;
      values =
        (fun _ ->
          let sets =
            dedup_psets
              [ faulty; Pset.empty; Pset.add (Pset.min_elt (Pset.complement ~n faulty)) faulty ]
          in
          List.map (fun s -> Sim.Fd_value.Suspects s) sets);
      lossy = false;
    }

  let quorum_of = function
    | Sim.Fd_value.Quorum q | Sim.Fd_value.Pair (_, Sim.Fd_value.Quorum q) ->
      Some q
    | _ -> None

  (* The dense menu history: every menu value of every process, each at
     its own sampled time. A run's sampled history is a subset of it,
     and the perpetual clauses are universally quantified over samples,
     so menu legality implies legality of every selectable run. *)
  let menu_history ~n menu =
    Fd.History.of_samples ~n
      (List.concat_map
         (fun p -> List.mapi (fun i v -> (p, i, v)) (menu.values p))
         (Pid.all ~n))

  let perpetual_clauses kind pattern h =
    let ( let* ) = Result.bind in
    let quorums_only h =
      Fd.History.map
        (fun v ->
          match quorum_of v with
          | Some q -> Sim.Fd_value.Quorum q
          | None -> v)
        h
    in
    let as_err = Result.map_error (Format.asprintf "%a" Fd.Check.pp_violation) in
    match kind with
    | Omega_only | Suspects_menu -> Ok ()
    | Sigma -> as_err (Fd.Check.intersection ~uniform:true pattern (quorums_only h))
    | Sigma_nu ->
      as_err (Fd.Check.intersection ~uniform:false pattern (quorums_only h))
    | Sigma_nu_plus ->
      let h = quorums_only h in
      let* () = as_err (Fd.Check.intersection ~uniform:false pattern h) in
      let* () = as_err (Fd.Check.self_inclusion h) in
      as_err (Fd.Check.conditional_nonintersection pattern h)

  (* Certify against the caller's pattern — the one the exploration
     actually runs under — so the certificate cannot silently apply to
     a different pattern than the one checked. The perpetual clauses
     read the pattern only through its correct/faulty split, never
     through crash times, so the dense menu history's small artificial
     sample times need no alignment with the pattern's crash times. *)
  let validate ~pattern menu =
    perpetual_clauses menu.kind pattern
      (menu_history ~n:(Sim.Failure_pattern.n pattern) menu)
end

(* [history_legal] checks the sampled detector history of a concrete
   explored run against the perpetual clauses of the menu's detector
   class — the finite-prefix fragment of admissibility (the eventual
   clauses are vacuous on prefixes, exactly as in [Core.Scenario]). *)
let history_legal ~kind ~pattern samples =
  let n = Sim.Failure_pattern.n pattern in
  Menu.perpetual_clauses kind pattern (Fd.History.of_samples ~n samples)

(* ---------------------------------------------------------------- *)
(* Transition-pruning reductions                                     *)
(* ---------------------------------------------------------------- *)

(* All three reductions are state-preserving: they prune *transitions*
   whose target is reached by an equal-length Mazurkiewicz-equivalent
   schedule elsewhere, never states, so verdict and [distinct_states]
   are identical across them (pinned by the differential battery in
   test_dpor.ml).

   - [No_reduction]: every enabled move is expanded everywhere.
   - [Sleep_sets]: the original pid-disjointness sleep sets — after a
     move by process p, earlier siblings and inherited sleepers of a
     different pid stay asleep; drop moves are never slept.
   - [Dpor]: happens-before sleep inheritance over the full
     independence relation [Make.move_dependent] (per-channel, not
     per-pid: a sleeper is woken only by a move it actually races
     with, and drop moves are slept too), plus a per-run no-op cache
     that skips known self-loop lambda steps at move generation. The
     woken sleepers are exactly the classical DPOR backtrack points:
     a detected race re-inserts the slept move into the sibling
     exploration instead of pruning it. *)
type reduction = No_reduction | Sleep_sets | Dpor

let pp_reduction fmt r =
  Format.pp_print_string fmt
    (match r with
    | No_reduction -> "none"
    | Sleep_sets -> "sleep"
    | Dpor -> "dpor")

(* ---------------------------------------------------------------- *)
(* Exploration statistics (shared across functor instantiations)     *)
(* ---------------------------------------------------------------- *)

type stats = {
  transitions : int;  (** edges taken (including into already-seen states) *)
  distinct_states : int;  (** canonical states after deduplication *)
  dedup_hits : int;
      (** transitions absorbed by memoization (0 when [dedup] is off) *)
  self_loops : int;  (** transitions skipped because child = parent *)
  sleep_skipped : int;  (** moves pruned by sleep sets *)
  races : int;
      (** [Dpor] only: dependent (taken move, sleeping candidate)
          pairs detected during sleep-set inheritance *)
  backtracks : int;
      (** [Dpor] only: sleepers woken by a race — the backtrack
          points re-inserted into the sibling exploration *)
  decided_leaves : int;  (** states where [stop] held, not expanded *)
  depth_leaves : int;  (** states truncated by the depth bound *)
  max_depth : int;
  truncated : bool;  (** hit [max_states]; exploration incomplete *)
  wall_seconds : float;
}

let states_per_sec s =
  if s.wall_seconds <= 0.0 then infinity
  else float_of_int s.distinct_states /. s.wall_seconds

let pp_stats fmt s =
  Format.fprintf fmt
    "%d transitions, %d distinct states (%d dedup hits, %d self-loops, %d \
     sleep-pruned, %d races, %d backtracks), %d decided leaves, %d depth \
     leaves, %.0f states/s%s"
    s.transitions s.distinct_states s.dedup_hits s.self_loops s.sleep_skipped
    s.races s.backtracks s.decided_leaves s.depth_leaves (states_per_sec s)
    (if s.truncated then " [TRUNCATED]" else "")

(* ---------------------------------------------------------------- *)
(* The checker functor                                               *)
(* ---------------------------------------------------------------- *)

module Make (A : Sim.Automaton.S) = struct
  module R = Sim.Runner.Make (A)

  type move = {
    m_pid : Pid.t;
    m_fd : Sim.Fd_value.t;
    m_recv : (Pid.t * int) option;
        (* (src, index into the src->pid channel); [None] = lambda *)
    m_drop : bool;
        (* lossy-menu network move: the message designated by
           [m_recv] (addressed to [m_pid]) is discarded instead of
           delivered; no process steps, [m_fd] is [Unit] *)
  }

  (* [m_recv] is matched out by hand: moves are compared once per
     sleeper per node (sleep membership, [Cover]'s subset and
     intersection), where a polymorphic [=] on the option shows up as
     the single hottest call of the whole walk. *)
  let move_equal a b =
    a.m_pid = b.m_pid && a.m_drop = b.m_drop
    && (match (a.m_recv, b.m_recv) with
       | None, None -> true
       | Some (s, i), Some (s', i') -> s = s' && i = i'
       | None, Some _ | Some _, None -> false)
    && Sim.Fd_value.equal a.m_fd b.m_fd

  type property = {
    prop_name : string;
    prop_check : (Pid.t -> A.state) -> (unit, string) result;
  }

  let invariant ~name f = { prop_name = name; prop_check = f }

  let consensus_props ~decision ~proposals ~flavour ~pattern =
    let outcome states =
      Consensus.Spec.outcome ~pattern ~proposals ~decisions:(fun p ->
          decision (states p))
    in
    [
      {
        prop_name = "validity";
        prop_check = (fun states -> Consensus.Spec.check_validity (outcome states));
      };
      {
        prop_name =
          Format.asprintf "%a agreement" Consensus.Spec.pp_flavour flavour;
        prop_check =
          (fun states ->
            Consensus.Spec.check_agreement flavour (outcome states));
      };
    ]

  let decided_stop ~decision ~scope states =
    Pset.for_all (fun p -> decision (states p) <> None) scope

  type counterexample = {
    cx_property : string;
    cx_detail : string;
    cx_moves : move list;  (** abstract schedule from the initial state *)
    cx_steps : R.replay_step list;  (** concrete, [R.replay]-compatible *)
    cx_samples : (Pid.t * int * Sim.Fd_value.t) list;
        (** the detector history actually sampled, for legality checks *)
    cx_states : A.state array;  (** final states along the schedule *)
  }

  type report = { stats : stats; violation : counterexample option }

  (* -------------------------------------------------------------- *)
  (* Abstract configurations                                         *)
  (* -------------------------------------------------------------- *)

  (* chans.(src * n + dst): pending payloads src -> dst, send order.
     Mailbox *contents* are part of the canonical state; envelope
     metadata is not (see the module header). *)
  type config = { states : A.state array; chans : A.message list array }

  (* The automaton states of this repository are pure data
     (ints, options, Pset bitsets, Maps), so polymorphic structural
     equality and hashing are sound here. Shape differences between
     structurally different but extensionally equal Maps only cost
     dedup hits, never soundness. Equality goes slot by slot and skips
     physically equal slots: [apply] shares every slot it does not
     touch, and polymorphic [=] never short-circuits on [==], so
     comparing a child with its parent walks only what the move
     changed. *)
  let slots_equal a b =
    let len = Array.length a in
    let rec go i =
      i = len || ((a.(i) == b.(i) || a.(i) = b.(i)) && go (i + 1))
    in
    a == b || (len = Array.length b && go 0)

  let config_equal a b =
    slots_equal a.states b.states && slots_equal a.chans b.chans

  let config_hash c = Hashtbl.hash_param 150 600 c

  (* -------------------------------------------------------------- *)
  (* Packed canonical-state encoding                                  *)
  (* -------------------------------------------------------------- *)

  (* A config retained in the visited set used to be the heap graph
     itself: n state values, n*n channel list spines, every payload.
     Campaigns see few *distinct per-process states* and few distinct
     payloads relative to distinct configurations, so the packed form
     interns both in [Codec.Pool]s and stores a config as a flat byte
     string of varint pool indices — one small [Bytes.t] per visited
     state instead of a shared-nothing object graph (the B12 table
     measures the per-state ratio).

     Layout: n varints (state pool index per process, pid order) |
     varint count of non-empty channels | per non-empty channel in
     ascending (src * n + dst) order: varint channel index, varint
     queue length, queue-order varint message pool indices.

     [encode] is injective with respect to [config_equal] given one
     pool: pool indices are in bijection with distinct values, the
     layout is uniquely decodable, and channel order is canonical —
     so [Bytes.equal] on packed keys *is* [config_equal], distinct
     states stay distinct (crafted hash collisions included, pinned
     in test_codec.ml), and [decode] is the exact inverse. The pool
     is mutex-protected: parallel workers intern concurrently. *)
  module Packed = struct
    type pool = {
      pk_n : int;
      pk_lock : Mutex.t;
      pk_states : A.state Codec.Pool.t;
      pk_msgs : A.message Codec.Pool.t;
    }

    let create ~n =
      {
        pk_n = n;
        pk_lock = Mutex.create ();
        pk_states = Codec.Pool.create ();
        pk_msgs = Codec.Pool.create ();
      }

    (* resume: rebuild pools whose indices are the checkpointed array
       positions, so stored packed keys keep decoding identically *)
    let of_pools ~n states msgs =
      {
        pk_n = n;
        pk_lock = Mutex.create ();
        pk_states = Codec.Pool.import states;
        pk_msgs = Codec.Pool.import msgs;
      }

    let export_pools p =
      (Codec.Pool.export p.pk_states, Codec.Pool.export p.pk_msgs)

    let locked p f =
      Mutex.lock p.pk_lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock p.pk_lock) f

    let sizes p =
      locked p (fun () ->
          (Codec.Pool.length p.pk_states, Codec.Pool.length p.pk_msgs))

    let encode p cfg =
      locked p (fun () ->
          let n = p.pk_n in
          let buf = Buffer.create 64 in
          Array.iter
            (fun st -> Codec.write_varint buf (Codec.Pool.intern p.pk_states st))
            cfg.states;
          let nonempty = ref 0 in
          Array.iter (fun q -> if q <> [] then incr nonempty) cfg.chans;
          Codec.write_varint buf !nonempty;
          for c = 0 to (n * n) - 1 do
            match cfg.chans.(c) with
            | [] -> ()
            | q ->
              Codec.write_varint buf c;
              Codec.write_varint buf (List.length q);
              List.iter
                (fun m ->
                  Codec.write_varint buf (Codec.Pool.intern p.pk_msgs m))
                q
          done;
          Buffer.to_bytes buf)

    (* [encode_child p ~key mv child] is [encode p child] for
       [child = apply ~n parent mv] and [key = encode p parent], built
       from [key] alone. [apply] replaces one state slot (none for a
       drop) and leaves every child channel equal to the parent's
       queue, less the consumed message on the consumed channel,
       followed by the messages the step appended. So the other state
       indices and the kept message indices are copied as bytes, and
       only the new state and the appended messages are interned — in
       the order [encode] would meet them (the state, then channels
       ascending), so the pool indices, and hence the bytes, are
       [encode]'s (pinned by the differential walks in
       test_codec.ml). *)
    let encode_child p ~key mv child =
      locked p (fun () ->
          let n = p.pk_n in
          let buf = Buffer.create (Bytes.length key + 8) in
          let pos = ref 0 in
          let read () = Codec.read_varint key pos in
          let copy_varint () =
            let start = !pos in
            ignore (read () : int);
            Buffer.add_subbytes buf key start (!pos - start)
          in
          for i = 0 to n - 1 do
            if i = mv.m_pid && not mv.m_drop then begin
              ignore (read () : int);
              Codec.write_varint buf
                (Codec.Pool.intern p.pk_states child.states.(i))
            end
            else copy_varint ()
          done;
          let cut_chan, cut_idx =
            match mv.m_recv with
            | Some (src, i) -> ((src * n) + mv.m_pid, i)
            | None -> (-1, -1)
          in
          let nonempty = ref 0 in
          Array.iter (fun q -> if q <> [] then incr nonempty) child.chans;
          Codec.write_varint buf !nonempty;
          (* the parent's sections come in ascending channel order;
             [next] is the channel of the first one not yet read *)
          let sections = ref (read ()) in
          let read_next () =
            if !sections = 0 then n * n
            else begin
              decr sections;
              read ()
            end
          in
          let next = ref (read_next ()) in
          for c = 0 to (n * n) - 1 do
            let q = child.chans.(c) in
            if q <> [] then begin
              Codec.write_varint buf c;
              Codec.write_varint buf (List.length q)
            end;
            let kept = ref 0 in
            if !next = c then begin
              for j = 0 to read () - 1 do
                if c = cut_chan && j = cut_idx then ignore (read () : int)
                else begin
                  incr kept;
                  copy_varint ()
                end
              done;
              next := read_next ()
            end;
            List.iteri
              (fun j m ->
                if j >= !kept then
                  Codec.write_varint buf (Codec.Pool.intern p.pk_msgs m))
              q
          done;
          Buffer.to_bytes buf)

    let decode p b =
      locked p (fun () ->
          let n = p.pk_n in
          let pos = ref 0 in
          let rec read_k k acc =
            if k = 0 then List.rev acc
            else read_k (k - 1) (Codec.read_varint b pos :: acc)
          in
          let states =
            Array.of_list
              (List.map (Codec.Pool.get p.pk_states) (read_k n []))
          in
          let chans = Array.make (n * n) [] in
          let k = Codec.read_varint b pos in
          for _ = 1 to k do
            let c = Codec.read_varint b pos in
            let len = Codec.read_varint b pos in
            chans.(c) <-
              List.map (Codec.Pool.get p.pk_msgs) (read_k len [])
          done;
          if !pos <> Bytes.length b then
            invalid_arg "Packed.decode: trailing bytes";
          { states; chans })
  end

  module BKey = struct
    type t = Bytes.t

    let equal = Bytes.equal
  end

  (* Memo keys are the interned *packed bytes*, hashed once with the
     full-width [Codec.bytes_hash] at encode time ([Intern.hashed]);
     equality prefilters on the cached hash with [Bytes.equal] — i.e.
     [config_equal], by injectivity of [encode] — as the collision
     backstop (pinned in test_codec.ml). The table retains one flat
     byte string per state instead of the config heap graph. *)
  module Shared = Intern.Striped (BKey)

  (* The memo-coverage record (remaining depth, remaining loss budget,
     sleep set) lives in [Cover]; every absorption/update decision of
     the walker goes through [Cov.revisit], which enforces the
     no-mixture rule. *)
  module Cov = Cover.Make (struct
    type t = move

    let equal = move_equal
  end)

  let rec remove_nth i = function
    | [] -> invalid_arg "remove_nth"
    | x :: rest -> if i = 0 then rest else x :: remove_nth (i - 1) rest

  let initial_config ~n ~inputs =
    {
      states = Array.init n (fun p -> A.initial ~n ~self:p (inputs p));
      chans = Array.make (n * n) [];
    }

  (* Delivery choices for process [p]. Under [`Fifo] each channel
     delivers in send order, so only its head is eligible — pending
     channel states stay suffixes of the send sequence instead of
     arbitrary sub-multisets, which keeps the reachable space
     polynomial in the per-channel traffic. Under [`Any], any pending
     message may be delivered (one representative per payload-distinct
     entry), matching the runner's full [Matching]-choice latitude. *)
  let recv_options ~n ~delivery cfg p =
    let opts = ref [] in
    for src = n - 1 downto 0 do
      match (delivery, cfg.chans.((src * n) + p)) with
      | _, [] -> ()
      | `Fifo, _ :: _ -> opts := (src, 0) :: !opts
      | `Any, q ->
        let rec go i seen = function
          | [] -> ()
          | m :: rest ->
            if List.exists (A.equal_message m) seen then go (i + 1) seen rest
            else begin
              opts := (src, i) :: !opts;
              go (i + 1) (m :: seen) rest
            end
        in
        go 0 [] q
    done;
    !opts

  let moves_of ~n ~delivery ~lossy ~menus cfg =
    let process_moves =
      List.concat_map
        (fun p ->
          let recvs =
            List.map (fun r -> Some r) (recv_options ~n ~delivery cfg p)
            @ [ None ]
          in
          List.concat_map
            (fun m_recv ->
              List.map
                (fun m_fd -> { m_pid = p; m_fd; m_recv; m_drop = false })
                menus.(p))
            recvs)
        (Pid.all ~n)
    in
    if not lossy then process_moves
    else
      (* Network moves, enumerated after the process moves so DFS
         walks the loss-free subtree first. Dropping only deliverable
         messages loses no generality: under FIFO links the delivered
         sequence of a channel with arbitrary loss is exactly a
         subsequence of the send sequence, and every subsequence is
         generated by the per-head deliver-or-drop choice (and
         likewise per eligible representative under [`Any]).
         Self-channels are exempt, as in [Sim.Faults]. *)
      process_moves
      @ List.concat_map
          (fun p ->
            List.filter_map
              (fun (src, i) ->
                if Pid.equal src p then None
                else
                  Some
                    {
                      m_pid = p;
                      m_fd = Sim.Fd_value.Unit;
                      m_recv = Some (src, i);
                      m_drop = true;
                    })
              (recv_options ~n ~delivery cfg p))
          (Pid.all ~n)

  let apply ~n cfg mv =
    let p = mv.m_pid in
    if mv.m_drop then begin
      (* network move: discard the designated message; no process
         steps, so the states array is shared untouched *)
      let src, idx =
        match mv.m_recv with Some r -> r | None -> assert false
      in
      let c = (src * n) + p in
      let chans = Array.copy cfg.chans in
      chans.(c) <- remove_nth idx chans.(c);
      { states = cfg.states; chans }
    end
    else begin
    let received, chans =
      match mv.m_recv with
      | None -> (None, cfg.chans)
      | Some (src, idx) ->
        let c = (src * n) + p in
        let q = cfg.chans.(c) in
        let payload = List.nth q idx in
        let chans = Array.copy cfg.chans in
        chans.(c) <- remove_nth idx q;
        (* seq/sent_at are not part of the abstraction; the automata
           only read src and payload *)
        (Some { Sim.Envelope.src; dst = p; seq = 0; sent_at = 0; payload }, chans)
    in
    let st, sends = A.step ~n ~self:p cfg.states.(p) received mv.m_fd in
    let states = Array.copy cfg.states in
    states.(p) <- st;
    let chans =
      if sends <> [] && chans == cfg.chans then Array.copy chans else chans
    in
    List.iter
      (fun (dst, m) -> chans.((p * n) + dst) <- chans.((p * n) + dst) @ [ m ])
      sends;
    { states; chans }
    end

  (* A drop, or a delivery from another process, shortens the channel
     it consumes from, and a step only appends to the stepper's own
     outgoing channels: such a move always changes the configuration.
     Only a lambda or a self-delivery can leave it unchanged, so only
     those compare [child = apply ~n cfg mv] with [cfg]. *)
  let may_self_loop mv =
    (not mv.m_drop)
    &&
    match mv.m_recv with
    | None -> true
    | Some (src, _) -> Pid.equal src mv.m_pid

  let is_self_loop cfg mv child = may_self_loop mv && config_equal child cfg

  (* -------------------------------------------------------------- *)
  (* Exploration                                                     *)
  (* -------------------------------------------------------------- *)

  exception Found of string * string * move list
  exception Limit

  (* ------------------------------------------------------------- *)
  (* The independence relation                                       *)
  (* ------------------------------------------------------------- *)

  (* The channel a move consumes from, if any: a delivery or drop of
     (src, i) consumes from the src -> m_pid channel; a lambda
     consumes nothing. *)
  let consumes mv =
    match mv.m_recv with
    | Some (src, _) -> Some (src, mv.m_pid)
    | None -> None

  (* [move_dependent a b]: the static dependence (non-commutation)
     relation over the move alphabet. Two moves are independent when,
     from any configuration enabling both, executing them in either
     order yields the same configuration and neither disables the
     other. Soundness rests on the state encoding: a process move by
     [p] reads/writes [states.(p)], removes one indexed message from a
     [(src, p)] channel, and appends at the tails of [(p, dst)]
     channels; a drop removes one indexed message from its channel and
     touches no process state. Hence:

     - two non-drop moves are dependent iff they step the same
       process (distinct-pid moves touch disjoint state slots, and
       tail-appends commute with indexed removals on a shared
       channel — the detector value is part of the move, so there is
       no shared detector state to race on);
     - two drops are dependent iff they drain the same channel
       (indexed removals on one channel do not commute);
     - a drop and a process move are dependent iff the process move
       consumes from the dropped channel (a send *into* a dropped
       channel appends at the tail and commutes with the head-side
       removal; the drop's budget debit commutes with everything —
       it is a function of the move multiset, not the order).

     Fault verdicts need no extra clause: the drop move itself *is*
     the verdict (keyed by its channel and index), exactly as
     [Sim.Faults] keys verdicts by (src, dst, seq, time) — there is
     no hidden verdict state for two moves to race on. The relation
     is symmetric and reflexive (every move is dependent with
     itself: same pid, or same channel), both pinned by qcheck in
     test_dpor.ml. *)
  let move_dependent a b =
    if (not a.m_drop) && not b.m_drop then a.m_pid = b.m_pid
    else
      (* at least one is a drop, so at least one consumes; equal
         channels means equal sources and equal consumers *)
      match (a.m_recv, b.m_recv) with
      | Some (sa, _), Some (sb, _) -> sa = sb && a.m_pid = b.m_pid
      | None, _ | _, None -> false

  (* Canonical Mazurkiewicz-trace key of a schedule: linearize the
     dependence DAG (edges i -> j for i < j with dependent moves)
     greedily by the structurally-minimal available move, then hash
     the resulting label sequence. Equal-label moves are always
     mutually dependent (same pid, or same channel), so the trace's
     equal labels are totally ordered and the greedy-minimal
     linearization is a canonical form: two schedules that differ
     only by swaps of adjacent independent moves get the same key.
     O(length²), fine for the <= ~100-move schedules recorded here. *)
  let trace_key moves =
    let arr = Array.of_list moves in
    let len = Array.length arr in
    let indeg = Array.make len 0 in
    for j = 0 to len - 1 do
      for i = 0 to j - 1 do
        if move_dependent arr.(i) arr.(j) then indeg.(j) <- indeg.(j) + 1
      done
    done;
    let taken = Array.make len false in
    let out = ref [] in
    for _ = 1 to len do
      let best = ref (-1) in
      for i = len - 1 downto 0 do
        if
          (not taken.(i))
          && indeg.(i) = 0
          && (!best < 0 || Stdlib.compare arr.(i) arr.(!best) <= 0)
        then best := i
      done;
      let b = !best in
      taken.(b) <- true;
      out := arr.(b) :: !out;
      for j = b + 1 to len - 1 do
        if (not taken.(j)) && move_dependent arr.(b) arr.(j) then
          indeg.(j) <- indeg.(j) - 1
      done
    done;
    Hashtbl.hash_param 500 1000 (List.rev !out)

  (* Re-execute an abstract schedule with real envelopes: runner-style
     per-sender sequence numbers and a global clock, producing the
     trace [R.replay] validates. *)
  let concretize ~n ~inputs moves =
    let states = Array.init n (fun p -> A.initial ~n ~self:p (inputs p)) in
    let chans = Array.make (n * n) [] in
    let send_seq = Array.make n 0 in
    let time = ref 1 in
    let steps = ref [] and samples = ref [] in
    List.iter
      (fun mv ->
        let p = mv.m_pid in
        if mv.m_drop then begin
          (* the network discards the message: no schedule step, no
             detector sample, no tick — on the concrete trace a drop
             is just a message nobody ever receives *)
          let src, idx =
            match mv.m_recv with Some r -> r | None -> assert false
          in
          let c = (src * n) + p in
          chans.(c) <- remove_nth idx chans.(c)
        end
        else begin
        let received =
          match mv.m_recv with
          | None -> None
          | Some (src, idx) ->
            let c = (src * n) + p in
            let env = List.nth chans.(c) idx in
            chans.(c) <- remove_nth idx chans.(c);
            Some env
        in
        samples := (p, !time, mv.m_fd) :: !samples;
        steps := { R.r_pid = p; r_received = received; r_fd = mv.m_fd } :: !steps;
        let st, sends = A.step ~n ~self:p states.(p) received mv.m_fd in
        states.(p) <- st;
        List.iter
          (fun (dst, payload) ->
            let seq = send_seq.(p) in
            send_seq.(p) <- seq + 1;
            chans.((p * n) + dst) <-
              chans.((p * n) + dst)
              @ [ { Sim.Envelope.src = p; dst; seq; sent_at = !time; payload } ])
          sends;
        incr time
        end)
      moves;
    (List.rev !steps, List.rev !samples, states)

  (* Per-node sibling index for race partitioning. [move_dependent]
     couples a move only with same-pid non-drop moves (when itself a
     non-drop) or with the consumers of one channel (when a drop is
     involved), so bucketing siblings by that key — non-drop moves by
     pid, drop moves by consumed channel — lets race detection for a
     taken move read just its own buckets instead of walking the whole
     sibling list. With a lossy menu a node's sibling list is
     O(n * |menu| + channels) long while a message has O(|menu|)
     consumers; the old [List.partition] walk made sleep inheritance
     quadratic in the sibling list per node, the B11 wall-clock
     regression of dpor against sleep-sets at depth >= 11. *)
  module Sibs = struct
    type t = {
      s_pid : move list array;  (* non-drop moves, indexed by m_pid *)
      s_chan : move list array;
          (* drop moves, indexed by consumed channel src * n + dst *)
    }

    let create ~n = { s_pid = Array.make n []; s_chan = Array.make (n * n) [] }

    let chan ~n mv =
      match mv.m_recv with
      | Some (src, _) -> (src * n) + mv.m_pid
      | None -> invalid_arg "Sibs.chan: lambda move"

    let add ~n t mv =
      if mv.m_drop then begin
        let c = chan ~n mv in
        t.s_chan.(c) <- mv :: t.s_chan.(c)
      end
      else t.s_pid.(mv.m_pid) <- mv :: t.s_pid.(mv.m_pid)

    (* membership probes only the one bucket the move could be in *)
    let mem ~n t mv =
      List.exists (move_equal mv)
        (if mv.m_drop then t.s_chan.(chan ~n mv) else t.s_pid.(mv.m_pid))
  end

  (* Sleep-set inheritance, per reduction. [Sleep_sets] keeps a
     sleeper asleep when it has a different pid than the taken move
     (drop moves conservatively never slept); [Dpor] keeps every
     sleeper — drops included — that is *independent* of the taken
     move under [move_dependent]. A dependent pair is a detected race
     ([races]); a dependent pair whose sleeper was inherited (in
     [slept], not just an earlier sibling in [explored]) is a woken
     sleeper — the backtrack point re-inserted into this sibling's
     exploration ([backtracks]). Both prune transitions only: a
     slept move's schedules are walked, move for move, from the
     sibling that put it to sleep, so reachable states within the
     depth bound are untouched (the differential battery pins
     distinct-state equality across all three reductions).

     The inherited set is computed bucket-wise from the [Sibs]
     indices: the buckets dependence couples to [mv] are counted as
     races (and, from [slept], as backtracks), every other bucket is
     kept wholesale. The *set* of kept sleepers is exactly the old
     [List.partition] filter's — only the list order differs, and
     every consumer of sleep sets (membership, [Cover]'s subset and
     intersection, the counters) is order-insensitive. *)
  let inherit_slept ~reduction ~lossy ~races ~backtracks ~n
      ~(explored : Sibs.t) ~(slept : Sibs.t) mv =
    match reduction with
    | No_reduction -> []
    | Sleep_sets ->
      (* non-drop moves of a different pid stay asleep; the drop
         buckets are never slept under this reduction *)
      let acc = ref [] in
      for p = n - 1 downto 0 do
        if p <> mv.m_pid then
          acc :=
            List.rev_append explored.Sibs.s_pid.(p)
              (List.rev_append slept.Sibs.s_pid.(p) !acc)
      done;
      !acc
    | Dpor ->
      let keep = ref [] in
      let nraces = ref 0 and nbt = ref 0 in
      let scan is_slept (t : Sibs.t) =
        let dep = ref 0 in
        (match consumes mv with
        | Some (src, dst) ->
          (* the consumed channel's drops race with [mv] whether or
             not [mv] is itself a drop; every other channel's drops
             commute with it. A reliable menu generates no drop
             moves, so its [s_chan] buckets are all empty — skip the
             n^2 bucket walk outright. *)
          if lossy then begin
            let c = (src * n) + dst in
            for c' = (n * n) - 1 downto 0 do
              if c' = c then dep := !dep + List.length t.Sibs.s_chan.(c')
              else keep := List.rev_append t.Sibs.s_chan.(c') !keep
            done
          end;
          if mv.m_drop then
            (* a drop races with the dropped channel's deliveries —
               all in the consumer's pid bucket, filtered by source —
               and with nothing else the process does *)
            for p = n - 1 downto 0 do
              if p <> dst then keep := List.rev_append t.Sibs.s_pid.(p) !keep
              else
                List.iter
                  (fun m ->
                    match m.m_recv with
                    | Some (s, _) when s = src -> incr dep
                    | _ -> keep := m :: !keep)
                  t.Sibs.s_pid.(p)
            done
          else
            for p = n - 1 downto 0 do
              if p = mv.m_pid then dep := !dep + List.length t.Sibs.s_pid.(p)
              else keep := List.rev_append t.Sibs.s_pid.(p) !keep
            done
        | None ->
          (* lambda: dependent only on its own process's non-drop
             moves; every drop commutes with it *)
          if lossy then
            for c' = (n * n) - 1 downto 0 do
              keep := List.rev_append t.Sibs.s_chan.(c') !keep
            done;
          for p = n - 1 downto 0 do
            if p = mv.m_pid then dep := !dep + List.length t.Sibs.s_pid.(p)
            else keep := List.rev_append t.Sibs.s_pid.(p) !keep
          done);
        nraces := !nraces + !dep;
        if is_slept then nbt := !nbt + !dep
      in
      scan false explored;
      scan true slept;
      races := !races + !nraces;
      backtracks := !backtracks + !nbt;
      !keep

  (* A structural hash over detector values, so the no-op memo can use
     a monomorphic [Hashtbl.Make] instance: the generic table's
     [caml_hash]/[caml_compare] calls per probe were the last
     DPOR-only cost visible in the B11 profiles. The [Pset.t] leaves
     are immediate ints, so [Hashtbl.hash] on them is a constant-time
     word mix, not a traversal. *)
  let rec fd_hash : Sim.Fd_value.t -> int = function
    | Sim.Fd_value.Unit -> 0x2545f491
    | Leader p -> 0x01000193 + p
    | Quorum q -> 0x811c9dc5 lxor Hashtbl.hash q
    | Suspects s -> 0x7feb352d lxor Hashtbl.hash s
    | Pair (a, b) -> (fd_hash a * 0x01000193) lxor fd_hash b

  (* Keyed by (pid, state pool index, detector value): the packed
     layout leads with the n state pool indices, so a node's own key
     yields [states.(p)]'s index without hashing the state. *)
  module Noop_tbl = Hashtbl.Make (struct
    type t = Pid.t * int * Sim.Fd_value.t

    let equal (p, i, f) (p', i', f') =
      p = p' && i = i' && Sim.Fd_value.equal f f'

    let hash (p, i, f) = (((p * 31) + i) * 0x01000193) lxor fd_hash f
  end)

  let noop_key (hc : Bytes.t Intern.hashed) mv =
    let pos = ref 0 in
    for _ = 1 to mv.m_pid do
      ignore (Codec.read_varint hc.Intern.iv pos)
    done;
    (mv.m_pid, Codec.read_varint hc.Intern.iv pos, mv.m_fd)

  (* ---------------------------------------------------------------- *)
  (* Campaign checkpoints                                              *)
  (* ---------------------------------------------------------------- *)

  (* Schema version of the mc checkpoint container. The fuzz
     checkpoint uses a different version number on the same container
     (2), so resuming an mc campaign from a fuzz file fails as
     [Bad_version], before any unmarshalling. Version 1 is the older
     mc schema whose no-op memo held decoded states; it is refused
     too. *)
  let ckpt_version = 3

  (* Everything that must match for a resume to be meaningful: the
     campaign shape. [max_states] is deliberately absent — resuming a
     truncated campaign under a larger budget is the point of
     checkpointing; the restored id watermark keeps the budget
     cumulative. [fp_root] hashes the packed initial configuration
     under a fresh pool, discriminating automata and inputs beyond
     what the named parameters capture. *)
  type fingerprint = {
    fp_n : int;
    fp_depth : int;
    fp_reduction : string;
    fp_dedup : bool;
    fp_delivery : string;
    fp_max_drops : int;
    fp_menu : string;
    fp_root : int;
  }

  type ckpt = {
    ck_fp : fingerprint;
    ck_states : A.state array;  (* Packed state pool, index order *)
    ck_msgs : A.message array;  (* Packed message pool, index order *)
    ck_visited : (int * Bytes.t * Cov.entry) array;
        (* (cached hash, packed key, coverage) per visited state *)
    ck_noops : (Pid.t * int * Sim.Fd_value.t) array;
        (* known no-op lambda keys ([Noop_tbl]), all workers' *)
    ck_tasks : (config * int * int * move list * move list) array;
        (* the frontier task queue, as built by the prefix walk *)
    ck_next : int;  (* first task not yet fully expanded *)
    ck_counts : int array;  (* cumulative stats, [snapshot] order *)
  }

  let fp_describe fp =
    Printf.sprintf
      "n=%d depth=%d reduction=%s dedup=%b delivery=%s max_drops=%d menu=%S \
       root=%d"
      fp.fp_n fp.fp_depth fp.fp_reduction fp.fp_dedup fp.fp_delivery
      fp.fp_max_drops fp.fp_menu fp.fp_root

  let fingerprint ~reduction ~dedup ~delivery ~max_drops ~n ~menu ~depth
      ~inputs =
    {
      fp_n = n;
      fp_depth = depth;
      fp_reduction = Format.asprintf "%a" pp_reduction reduction;
      fp_dedup = dedup;
      fp_delivery = (match delivery with `Fifo -> "fifo" | `Any -> "any");
      fp_max_drops = max_drops;
      fp_menu = menu.Menu.name;
      fp_root =
        Codec.bytes_hash
          (Packed.encode (Packed.create ~n) (initial_config ~n ~inputs));
    }

  (* Load + validate: the container layer ([Codec.read_file]) rejects
     bad magic, wrong schema versions and digest mismatches before
     unmarshalling; the fingerprint check rejects well-formed
     checkpoints of a different campaign; and every stored visited
     key is re-verified — cached hash against a re-hash of the bytes,
     and decode∘encode byte-identity against the restored pools — so
     a checkpoint that would corrupt the memo table is refused with a
     typed error instead of silently poisoning the resumed run. *)
  let load_ckpt ~path ~fp =
    match
      (Codec.read_file ~path ~version:ckpt_version
        : (ckpt, Codec.error) result)
    with
    | Error e -> Error e
    | Ok c ->
      if c.ck_fp <> fp then
        Error
          (Codec.Params_mismatch
             (Printf.sprintf "checkpoint {%s} vs campaign {%s}"
                (fp_describe c.ck_fp) (fp_describe fp)))
      else begin
        let pool = Packed.of_pools ~n:fp.fp_n c.ck_states c.ck_msgs in
        let verify (ih, b, _) =
          Codec.bytes_hash b = ih
          &&
          match Packed.decode pool b with
          | cfg -> Bytes.equal (Packed.encode pool cfg) b
          | exception _ -> false
        in
        if Array.for_all verify c.ck_visited then Ok (c, pool)
        else Error (Codec.Corrupt "stored state hashes do not re-verify")
      end

  (* ---------------------------------------------------------------- *)
  (* Exploration                                                       *)
  (* ---------------------------------------------------------------- *)

  (* The coordinator walks the DFS prefix up to [spawn_depth] against
     the striped visited table, queuing every would-be expansion at
     the frontier as a task; the queued expansions then run to
     completion over the same table — inline, in queue order, at
     [jobs = 1], and on [jobs] domains otherwise. At [jobs = 1] the
     walk is therefore one deterministic order whether or not
     checkpoints are on, and every counter is identical across
     straight, checkpointed and killed-and-resumed runs.

     Equivalence across job counts (same verdict, same
     [distinct_states] on non-truncated explorations) holds because
     exploration is order-independent: a state enters the table the
     first time any path reaches it, memo absorption only ever cuts a
     visit whose (depth budget, drop budget, sleep set) coverage is
     dominated by coverage some other visit has walked or will walk,
     and sleep sets prune transitions covered by a sibling's subtree —
     none of which depends on which worker arrives first. The
     interleaving-dependent quantities ([transitions], [dedup_hits],
     [self_loops], [sleep_skipped], [depth_leaves]) do vary across
     runs at [jobs > 1]; [decided_leaves] does not (one per distinct
     decided state, counted at insertion). When a violation exists,
     every order finds one — but possibly a different one, so only
     the verdict is pinned for violating workloads. Per-node table
     work is one stripe lock per lookup; property evaluation runs
     outside the lock with a double-checked re-lookup before
     insertion.

     Checkpointing rides on the task queue: tasks are processed in
     chunks, and a checkpoint — the Codec container holding the
     fingerprint, the packed pools, the visited export, the known
     no-op keys, the task queue and the cursor — is written only at
     chunk boundaries, after [Pool.run] has joined. At a boundary
     every claim in the memo table is fulfilled (each inserted entry's
     coverage has been fully walked), which is what makes resuming
     sound: a resumed run re-enters the same order-independent
     fixpoint and reproduces the uninterrupted verdict and
     distinct-state count exactly. For the same reason the
     [max_states] budget is, in checkpointed mode, enforced at
     boundaries only (a mid-task abort would leave unfulfilled claims
     in the saved table) — the overshoot is bounded by one chunk's
     subtrees, and the budget is cumulative across segments via the
     restored id watermark. *)
  let run ?(reduction = Sleep_sets) ?(dedup = true) ?(delivery = `Fifo)
      ?(max_states = 2_000_000) ?(max_drops = max_int) ?(jobs = 1) ?checkpoint
      ?resume ?spill_dir ?stop ~n ~menu ~depth ~inputs ~props () =
    let t0 = Sim.Clock.now () in
    let jobs = max 1 jobs in
    let lossy = menu.Menu.lossy in
    let menus = Array.init n (fun p -> menu.Menu.values p) in
    let sleep = reduction <> No_reduction in
    let dpor = reduction = Dpor in
    let visited : Cov.entry Shared.t = Shared.create ~stripes:64 65536 in
    (match spill_dir with
    | Some d -> Shared.set_spill_dir visited d
    | None -> ());
    let ckpt_mode =
      checkpoint <> None || resume <> None || spill_dir <> None
    in
    let fp =
      fingerprint ~reduction ~dedup ~delivery ~max_drops ~n ~menu ~depth
        ~inputs
    in
    let resumed =
      match resume with
      | None -> None
      | Some path -> (
        match load_ckpt ~path ~fp with
        | Error e -> raise (Resume_rejected e)
        | Ok (c, pool) -> Some (c, pool))
    in
    let pool =
      match resumed with Some (_, p) -> p | None -> Packed.create ~n
    in
    (* A node's memo key: its packed bytes with their full-width hash,
       computed once and reused for every probe of the node. The root,
       the queued tasks and nothing else are encoded whole; every
       transition's child key is derived from its parent's
       ([Packed.encode_child]). The table retains only the bytes. *)
    let hconfig cfg =
      Intern.hashed Codec.bytes_hash (Packed.encode pool cfg)
    in
    let hchild (hc : Bytes.t Intern.hashed) mv child =
      Intern.hashed Codec.bytes_hash
        (Packed.encode_child pool ~key:hc.Intern.iv mv child)
    in
    let violation = Atomic.make None in
    let truncated = Atomic.make false in
    let halt = Atomic.make false in
    (* per-worker counters, slot 0 = the coordinator's prefix walk —
       and, on a resume, the restored cumulative totals of the prior
       segments, so the final sums span the whole campaign *)
    let counters () = Array.init (jobs + 1) (fun _ -> ref 0) in
    let transitions = counters ()
    and dedup_hits = counters ()
    and self_loops = counters ()
    and sleep_skipped = counters ()
    and races = counters ()
    and backtracks = counters ()
    and decided_leaves = counters ()
    and depth_leaves = counters ()
    and max_depths = counters () in
    (* Known no-op lambda steps ([Dpor] only): a lambda step's result
       is a function of (pid, its state, the detector value) alone, so
       once observed to change nothing it is skipped at move
       generation — without re-applying [A.step] — at every later
       node. Counted as a [self_loops] skip but not a transition. A
       no-op is never recorded in a sleep set (it is skipped before
       the sleep check could record it), so memo coverage domination
       is untouched. One table per worker instead of a shared locked
       one: the cache is a pure memo of [A.step], so divergence
       between workers only costs repeated first encounters. The
       coordinator's prefix walk ends before any worker starts and
       shares worker 0's table, and checkpoints carry the known keys,
       so at [jobs = 1] one table spans the whole campaign. *)
    let noops = Array.init jobs (fun _ -> Noop_tbl.create 1024) in
    (match resumed with
    | None -> ()
    | Some (c, _) ->
      Shared.import visited
        (Array.map
           (fun (ih, b, e) ->
             (Intern.hashed (fun (_ : Bytes.t) -> ih) b, e))
           c.ck_visited);
      Array.iteri
        (fun i r -> r.(0) := c.ck_counts.(i))
        [| transitions; dedup_hits; self_loops; sleep_skipped; races;
           backtracks; decided_leaves; depth_leaves; max_depths |];
      Array.iter
        (fun t -> Array.iter (fun k -> Noop_tbl.replace t k ()) c.ck_noops)
        noops);
    let spawn_depth = max 1 (min 2 (depth - 1)) in
    let stopped cfg =
      match stop with Some f -> f (fun p -> cfg.states.(p)) | None -> false
    in
    let frontier = ref [] in
    (* [sink]: the coordinator's prefix walk queues frontier
       expansions instead of performing them; workers ([sink=false])
       expand in place. A queued task resumes exactly at the
       expansion step — its node is already in the table, claiming
       the coverage the task will perform. [hc] is [cfg]'s packed
       key. *)
    let rec expand ~w ~sink cfg hc remaining drops slept path_rev =
      if sink && depth - remaining >= spawn_depth then
        frontier := (cfg, remaining, drops, slept, path_rev) :: !frontier
      else begin
        let noop = noops.(max 0 (w - 1)) in
        (* the drop alphabet switches off once the path's loss budget
           is spent *)
        let all =
          moves_of ~n ~delivery ~lossy:(lossy && drops > 0) ~menus cfg
        in
        (* index the inherited sleepers once per node; earlier
           explored siblings accumulate in the same bucketed form *)
        let sl = Sibs.create ~n and ex = Sibs.create ~n in
        List.iter (Sibs.add ~n sl) slept;
        List.iter
          (fun mv ->
            if sleep && Sibs.mem ~n sl mv then incr sleep_skipped.(w)
            else if
              dpor && mv.m_recv = None && Noop_tbl.mem noop (noop_key hc mv)
            then incr self_loops.(w)
            else begin
              let child = apply ~n cfg mv in
              incr transitions.(w);
              if is_self_loop cfg mv child then begin
                (* self-loop (e.g. a lambda step whose detector value
                   unlocks nothing): no new state, and every move
                   enabled at the child is enabled here — skip *)
                incr self_loops.(w);
                if dpor && mv.m_recv = None then
                  Noop_tbl.replace noop (noop_key hc mv) ()
              end
              else begin
                let child_slept =
                  inherit_slept ~reduction ~lossy ~races:races.(w)
                    ~backtracks:backtracks.(w) ~n ~explored:ex ~slept:sl mv
                in
                pdfs ~w ~sink child (hchild hc mv child) (remaining - 1)
                  (if mv.m_drop then drops - 1 else drops)
                  child_slept (mv :: path_rev);
                if sleep then Sibs.add ~n ex mv
              end
            end)
          all
      end
    and pdfs ~w ~sink cfg hc remaining drops slept path_rev =
      if Atomic.get halt then raise Limit;
      if depth - remaining > !(max_depths.(w)) then
        max_depths.(w) := depth - remaining;
      let act = function
        | `Absorbed -> incr dedup_hits.(w)
        | `Expand slept' ->
          if remaining > 0 then
            expand ~w ~sink cfg hc remaining drops slept' path_rev
          else incr depth_leaves.(w)
        | `Known ->
          (* dedup off: nothing is absorbed; re-explore the revisit *)
          if stopped cfg then incr decided_leaves.(w)
          else if remaining = 0 then incr depth_leaves.(w)
          else expand ~w ~sink cfg hc remaining drops slept path_rev
        | `Decided -> incr decided_leaves.(w)
        | `Inserted ->
          if remaining = 0 then incr depth_leaves.(w)
          else expand ~w ~sink cfg hc remaining drops slept path_rev
        | `Full ->
          Atomic.set truncated true;
          Atomic.set halt true;
          raise Limit
      in
      (* the domination/update decision runs under the stripe lock, so
         the entry mutation is atomic; [on_fresh] decides an unbound
         key *)
      let probe on_fresh =
        Shared.with_key visited hc (function
          | Some e when dedup ->
            ( (Cov.revisit e ~remaining ~drops ~slept
                : [ `Absorbed | `Expand of move list ]
                :> [> `Absorbed | `Expand of move list ]),
              None )
          | Some _ -> (`Known, None)
          | None -> on_fresh ())
      in
      match probe (fun () -> (`Fresh, None)) with
      | `Fresh ->
        (* Property and goal evaluation run outside the stripe lock;
           the second, double-checked lookup re-examines the binding a
           racing worker may have created in between. In checkpointed
           mode the budget is enforced at chunk boundaries instead —
           a mid-task abort would leave unfulfilled coverage claims in
           the saved table. *)
        if (not ckpt_mode) && Shared.length visited >= max_states then
          act `Full
        else begin
          List.iter
            (fun pr ->
              match pr.prop_check (fun p -> cfg.states.(p)) with
              | Ok () -> ()
              | Error d -> raise (Found (pr.prop_name, d, List.rev path_rev)))
            props;
          let decided = stopped cfg in
          act
            (probe (fun () ->
                 if (not ckpt_mode) && Shared.length visited >= max_states
                 then (`Full, None)
                 else if decided then
                   (* all-decided goal state: safety can no longer
                      change in the checked scope; never expanded, at
                      any budget *)
                   (`Decided, Some (Cov.goal ()))
                 else (`Inserted, Some (Cov.make ~remaining ~drops ~slept))))
        end
      | (`Absorbed | `Expand _ | `Known) as a -> act a
    in
    (* a violation aborts everything; first recorded one wins *)
    let guard f =
      try f () with
      | Limit -> ()
      | Found (prop, detail, moves) ->
        ignore (Atomic.compare_and_set violation None (Some (prop, detail, moves)));
        Atomic.set halt true
    in
    let root = initial_config ~n ~inputs in
    (* a resumed run never re-walks the prefix: its frontier queue and
       cursor come from the checkpoint, its prefix states from the
       imported visited set *)
    let tasks, start =
      match resumed with
      | Some (c, _) -> (c.ck_tasks, c.ck_next)
      | None ->
        guard (fun () ->
            pdfs ~w:0 ~sink:true root (hconfig root) depth max_drops [] []);
        (Array.of_list (List.rev !frontier), 0)
    in
    let ntasks = Array.length tasks in
    let sum a = Array.fold_left (fun acc r -> acc + !r) 0 a in
    let maxi a = Array.fold_left (fun acc r -> max acc !r) 0 a in
    let snapshot () =
      [|
        sum transitions; sum dedup_hits; sum self_loops; sum sleep_skipped;
        sum races; sum backtracks; sum decided_leaves; sum depth_leaves;
        maxi max_depths;
      |]
    in
    let last_ckpt = ref (Shared.length visited) in
    let write_ckpt next =
      match checkpoint with
      | None -> ()
      | Some (path, _) ->
        let vis =
          Array.map
            (fun ((k : Bytes.t Intern.hashed), e) ->
              (k.Intern.ih, k.Intern.iv, e))
            (Shared.export visited)
        in
        let sp, mp = Packed.export_pools pool in
        Codec.write_file ~path ~version:ckpt_version
          {
            ck_fp = fp;
            ck_states = sp;
            ck_msgs = mp;
            ck_visited = vis;
            ck_noops =
              (* union of the workers' tables: each key stored once *)
              (let all = Noop_tbl.create 1024 in
               Array.iter
                 (Noop_tbl.iter (fun k () -> Noop_tbl.replace all k ()))
                 noops;
               Array.of_seq (Noop_tbl.to_seq_keys all));
            ck_tasks = tasks;
            ck_next = next;
            ck_counts = snapshot ();
          };
        last_ckpt := Shared.length visited
    in
    let run_task ~worker i =
      if not (Atomic.get halt) then begin
        let cfg, remaining, drops, slept, path_rev = tasks.(i) in
        guard (fun () ->
            expand ~w:(worker + 1) ~sink:false cfg (hconfig cfg) remaining
              drops slept path_rev)
      end
    in
    (* The task loop: budget check, then a joined chunk of tasks, then
       (possibly) a checkpoint and a spill — always at a boundary where
       every memo claim is fulfilled. Without a checkpoint, resume or
       spill dir the whole queue is one chunk: a single [Pool.run], with
       the budget enforced mid-task instead. At [jobs = 1] the chunks run
       inline in task order, so checkpointed, resumed and straight runs
       are counter-for-counter identical; at [jobs > 1] the
       order-independent quantities (verdict, distinct states, decided
       leaves) are identical and the rest varies as it already does
       across parallel runs. *)
    let chunk = if ckpt_mode then max 1 (4 * jobs) else max 1 ntasks in
    let next = ref start in
    let continue = ref true in
    while !continue && !next < ntasks do
      if ckpt_mode && Shared.length visited >= max_states then begin
        (* cumulative: the imported watermark counts prior segments, so
           resuming a truncated campaign under the same budget
           truncates again immediately *)
        Atomic.set truncated true;
        continue := false;
        write_ckpt !next
      end
      else begin
        let lo = !next in
        let hi = min ntasks (lo + chunk) in
        Pool.run ~jobs (hi - lo) (fun ~worker j -> run_task ~worker (lo + j));
        next := hi;
        if Atomic.get violation <> None || Atomic.get halt then
          continue := false
        else begin
          (match checkpoint with
          | Some (_, every) when Shared.length visited - !last_ckpt >= every ->
            write_ckpt !next
          | _ -> ());
          match spill_dir with Some _ -> Shared.spill visited | None -> ()
        end
      end
    done;
    (* completed exhaustively: record the final cursor, so resuming a
       finished checkpoint reports completion instead of re-work *)
    if
      !next >= ntasks
      && Atomic.get violation = None
      && not (Atomic.get truncated)
    then write_ckpt ntasks;
    let stats =
      {
        transitions = sum transitions;
        distinct_states = Shared.length visited;
        dedup_hits = sum dedup_hits;
        self_loops = sum self_loops;
        sleep_skipped = sum sleep_skipped;
        races = sum races;
        backtracks = sum backtracks;
        decided_leaves = sum decided_leaves;
        depth_leaves = sum depth_leaves;
        max_depth = maxi max_depths;
        truncated = Atomic.get truncated;
        (* one monotonic-clock read on the coordinating domain — never
           a sum of per-domain spans *)
        wall_seconds = Sim.Clock.elapsed t0;
      }
    in
    let violation =
      match Atomic.get violation with
      | None -> None
      | Some (cx_property, cx_detail, cx_moves) ->
        let cx_steps, cx_samples, cx_states = concretize ~n ~inputs cx_moves in
        Some { cx_property; cx_detail; cx_moves; cx_steps; cx_samples; cx_states }
    in
    { stats; violation }

  let replay_counterexample ~n ~inputs cx = R.replay ~n ~inputs cx.cx_steps

  (* The abstract schedule space behind [run], exposed so randomized
     exploration ([lib/explore]) samples the exact move alphabet this
     checker enumerates: a fuzzer finding cannot be an artifact of a
     different network or detector model, and a fuzz counterexample
     concretizes through the same [concretize] the checker certifies
     with. *)
  module Space = struct
    type nonrec config = config

    let initial = initial_config
    let state cfg p = cfg.states.(p)
    let equal = config_equal
    let self_loop ~n cfg mv =
      may_self_loop mv && config_equal (apply ~n cfg mv) cfg
    let key cfg = config_hash cfg
    let enabled = moves_of

    let applicable ~n cfg mv =
      match mv.m_recv with
      | None -> not mv.m_drop
      | Some (src, i) ->
        ((not mv.m_drop) || not (Pid.equal src mv.m_pid))
        && i >= 0
        && i < List.length cfg.chans.((src * n) + mv.m_pid)

    let apply = apply
    let concretize = concretize
  end

  let pp_replay_step fmt (s : R.replay_step) =
    (match s.R.r_received with
    | None -> Format.fprintf fmt "p%d receives lambda" s.R.r_pid
    | Some env ->
      Format.fprintf fmt "p%d receives p%d->p%d#%d %a" s.R.r_pid
        env.Sim.Envelope.src env.Sim.Envelope.dst env.Sim.Envelope.seq
        A.pp_message env.Sim.Envelope.payload);
    Format.fprintf fmt ", fd = %a" Sim.Fd_value.pp s.R.r_fd

  let pp_counterexample fmt cx =
    Format.fprintf fmt "@[<v>violates %s: %s@,schedule (%d steps):@,"
      cx.cx_property cx.cx_detail (List.length cx.cx_steps);
    List.iteri
      (fun i s -> Format.fprintf fmt "  t=%-3d %a@," (i + 1) pp_replay_step s)
      cx.cx_steps;
    (match List.length (List.filter (fun m -> m.m_drop) cx.cx_moves) with
    | 0 -> ()
    | k ->
      Format.fprintf fmt
        "  (plus %d message%s dropped by the network along the way)@," k
        (if k = 1 then "" else "s"));
    Format.fprintf fmt "@]"
end
