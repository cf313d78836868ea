(** Memo-coverage records for the bounded model checker.

    One entry per visited canonical state, recording the exploration
    coverage actually walked from it: remaining depth budget,
    remaining loss budget, and the sleep set expanded under. All
    absorption and update decisions go through {!Make.revisit}, which
    enforces the {e no-mixture rule}: an entry always describes one
    exploration that actually happened — never a max-budget /
    intersected-sleep-set combination of two visits, which would
    absorb later revisits whose schedules were never walked. *)

module type MOVE = sig
  type t

  val equal : t -> t -> bool
end

module Make (M : MOVE) : sig
  type entry

  val make : remaining:int -> drops:int -> slept:M.t list -> entry
  (** A fresh entry for a state first visited with these budgets and
      this sleep set. *)

  val goal : unit -> entry
  (** The entry for a goal (all-decided) state: infinite budgets and
      an empty sleep set, so it absorbs every revisit — stopped
      states are never expanded. *)

  val remaining : entry -> int
  val drops : entry -> int
  val slept : entry -> M.t list

  val dominates :
    entry -> remaining:int -> drops:int -> slept:M.t list -> bool
  (** Whether the stored coverage includes everything a visit with
      these budgets and this sleep set would walk: at least as much
      remaining depth, at least as much loss budget, and a stored
      sleep set included in the revisit's (pruning no more). *)

  val revisit :
    entry ->
    remaining:int ->
    drops:int ->
    slept:M.t list ->
    [ `Absorbed | `Expand of M.t list ]
  (** The revisit decision, mutating the entry in place.
      [`Absorbed] when {!dominates} holds. Otherwise
      [`Expand slept'] where [slept'] is the intersection of the
      stored and current sleep sets — sound for both visits — and the
      entry is updated to [(remaining, drops, slept')] only when both
      current budgets dominate the stored ones (the coverage about to
      be walked then includes the stored coverage, so the entry still
      describes a walked exploration). Callers running under a lock
      (the checker holds the key's stripe lock) get atomicity of the
      decision and the update for free. *)
end
