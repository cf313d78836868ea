open Procset

type t = {
  name : string;
  query : Pid.t -> int -> Sim.Fd_value.t;
  stab_time : int;
}

let of_fun ~name ~stab_time query = { name; query; stab_time }

let history ~horizon ~n o = History.of_fun ~n ~horizon o.query

(* Draw streams, one per use site. Oracles queried at the same
   (seed, p, t), as [pair omega sigma_nu_plus] is, then read unrelated
   words: a leader [word mod n] and a quorum [pool land word] drawn
   from one word would share low bits. *)
let leader_stream = 1
let pivot_stream = 2
let faulty_stream = 3
let family_stream = 4
let coin_stream = 5
let suspects_stream = 6

let clamp_stab pattern = function
  | None -> Sim.Failure_pattern.last_crash_time pattern + 1
  | Some s -> max s (Sim.Failure_pattern.last_crash_time pattern + 1)

(* {smallest correct process}, computed once per oracle; empty when
   every process is faulty, and then [anchor] fails, so an oracle
   fails at its first query that needs the pivot. *)
let pivot_set pattern =
  let correct = Sim.Failure_pattern.correct pattern in
  if Pset.is_empty correct then Pset.empty
  else Pset.singleton (Pset.min_elt correct)

let anchor pivot =
  if Pset.is_empty pivot then
    invalid_arg "Oracle: failure pattern with no correct process";
  pivot

type omega_prestab = Omega_random | Omega_faulty_first

let omega ?(seed = 0) ?stab_time ?(prestab = Omega_random) pattern =
  let n = Sim.Failure_pattern.n pattern in
  let stab_time = clamp_stab pattern stab_time in
  let leader = Pset.min_elt (anchor (pivot_set pattern)) in
  let stable = Sim.Fd_value.Leader leader in
  let query =
    match prestab with
    | Omega_random ->
      fun p t ->
        if t >= stab_time then stable
        else
          Sim.Fd_value.Leader
            (Draw.int (Draw.make ~stream:leader_stream seed p t) n)
    | Omega_faulty_first ->
      let faulty = Sim.Failure_pattern.faulty pattern in
      let early =
        if Pset.is_empty faulty then stable
        else Sim.Fd_value.Leader (Pset.fold max faulty 0)
      in
      fun _ t -> if t >= stab_time then stable else early
  in
  { name = "Omega"; query; stab_time }

(* Pivot construction shared by Sigma and the correct side of the
   Sigma-nu family: quorum = {pivot} ∪ a random subset of [pool]. The
   self-including detectors add the owner. *)
let pivot_quorum ~seed pivot p t ~pool =
  Pset.union (anchor pivot)
    (Pset.random_subset (Draw.make ~stream:pivot_stream seed p t) pool)

let sigma ?(seed = 0) ?stab_time pattern =
  let n = Sim.Failure_pattern.n pattern in
  let stab_time = clamp_stab pattern stab_time in
  let correct = Sim.Failure_pattern.correct pattern in
  let all = Pset.full ~n in
  let pivot = pivot_set pattern in
  let query p t =
    let pool = if t >= stab_time then correct else all in
    Sim.Fd_value.Quorum (pivot_quorum ~seed pivot p t ~pool)
  in
  { name = "Sigma"; query; stab_time }

(* A family quorum grown inside [pool]. [validate]d callers never see
   [None]; the guard is for direct misuse. *)
let family_quorum family ~n ~seed p t ~pool =
  match
    Quorum_family.grow_quorum family ~n
      (Draw.make ~stream:family_stream seed p t)
      ~pool
  with
  | Some q -> q
  | None ->
    invalid_arg
      (Printf.sprintf "Oracle: no %s quorum inside %s"
         (Quorum_family.name family) (Pset.to_string pool))

let sigma_family ?(seed = 0) ?stab_time family pattern =
  let n = Sim.Failure_pattern.n pattern in
  let correct = Sim.Failure_pattern.correct pattern in
  match Quorum_family.validate family ~n ~live:correct with
  | Error _ as e -> e
  | Ok () ->
    let stab_time = clamp_stab pattern stab_time in
    let all = Pset.full ~n in
    let query p t =
      let pool = if t >= stab_time then correct else all in
      Sim.Fd_value.Quorum (family_quorum family ~n ~seed p t ~pool)
    in
    Ok
      {
        name = Printf.sprintf "Sigma[%s]" (Quorum_family.name family);
        query;
        stab_time;
      }

type faulty_mode = Faulty_arbitrary | Faulty_split

(* The quorum of a faulty process [p]: any subset of [all] under
   [Faulty_arbitrary]; under [Faulty_split], [p] and a subset of
   [faulty]. *)
let faulty_quorum ~seed ~mode ~all ~faulty p t =
  let g = Draw.make ~stream:faulty_stream seed p t in
  match mode with
  | Faulty_arbitrary -> Pset.random_subset g all
  | Faulty_split -> Pset.add p (Pset.random_subset g faulty)

let sigma_nu ?(seed = 0) ?stab_time ?(faulty_mode = Faulty_arbitrary) pattern =
  let n = Sim.Failure_pattern.n pattern in
  let stab_time = clamp_stab pattern stab_time in
  let correct = Sim.Failure_pattern.correct pattern in
  let all = Pset.full ~n in
  let faulty = Sim.Failure_pattern.faulty pattern in
  let pivot = pivot_set pattern in
  let query p t =
    if Pset.mem p faulty then
      Sim.Fd_value.Quorum
        (faulty_quorum ~seed ~mode:faulty_mode ~all ~faulty p t)
    else
      let pool = if t >= stab_time then correct else all in
      Sim.Fd_value.Quorum (pivot_quorum ~seed pivot p t ~pool)
  in
  { name = "Sigma-nu"; query; stab_time }

let sigma_nu_plus ?(seed = 0) ?stab_time ?(faulty_mode = Faulty_arbitrary)
    pattern =
  let n = Sim.Failure_pattern.n pattern in
  let stab_time = clamp_stab pattern stab_time in
  let correct = Sim.Failure_pattern.correct pattern in
  let all = Pset.full ~n in
  let faulty = Sim.Failure_pattern.faulty pattern in
  let pivot = pivot_set pattern in
  let query p t =
    if Pset.mem p faulty then
      (* Self-including, and either pivot-anchored (intersects every
         correct quorum) or faulty-only (conditional nonintersection
         holds). *)
      let quorum =
        match faulty_mode with
        | Faulty_split ->
          faulty_quorum ~seed ~mode:Faulty_split ~all ~faulty p t
        | Faulty_arbitrary ->
          if Draw.int (Draw.make ~stream:coin_stream seed p t) 2 = 0 then
            faulty_quorum ~seed ~mode:Faulty_split ~all ~faulty p t
          else Pset.add p (pivot_quorum ~seed pivot p t ~pool:all)
      in
      Sim.Fd_value.Quorum quorum
    else
      let pool = if t >= stab_time then correct else all in
      Sim.Fd_value.Quorum (Pset.add p (pivot_quorum ~seed pivot p t ~pool))
  in
  { name = "Sigma-nu+"; query; stab_time }

(* Family-parameterized Sigma-nu: correct processes output family
   quorums (grown inside [correct] after stabilization, inside [Pi]
   before); any two family quorums intersect, so the correct-only
   intersection clause holds a fortiori, and post-stabilization
   quorums are all-correct (completeness). Faulty processes take the
   split escape — subsets of [faulty(F)] around themselves — which
   Sigma-nu leaves unconstrained. *)
let sigma_nu_family ?(seed = 0) ?stab_time family pattern =
  let n = Sim.Failure_pattern.n pattern in
  let correct = Sim.Failure_pattern.correct pattern in
  match Quorum_family.validate family ~n ~live:correct with
  | Error _ as e -> e
  | Ok () ->
    let stab_time = clamp_stab pattern stab_time in
    let all = Pset.full ~n in
    let faulty = Sim.Failure_pattern.faulty pattern in
    let query p t =
      if Pset.mem p faulty then
        Sim.Fd_value.Quorum
          (faulty_quorum ~seed ~mode:Faulty_split ~all ~faulty p t)
      else
        let pool = if t >= stab_time then correct else all in
        Sim.Fd_value.Quorum (family_quorum family ~n ~seed p t ~pool)
    in
    Ok
      {
        name = Printf.sprintf "Sigma-nu[%s]" (Quorum_family.name family);
        query;
        stab_time;
      }

(* Family-parameterized Sigma-nu+. Correct quorums are family quorums
   with the owner added (monotonicity keeps them quorums) —
   self-inclusion. Faulty quorums are always the faulty-only escape
   [{p} ∪ subset(faulty)]: unlike the pivot construction, family
   quorums of correct processes share no fixed anchor, so a faulty
   quorum touching the correct side could miss one of them — only the
   no-correct-member branch keeps conditional nonintersection sound
   for every family. *)
let sigma_nu_plus_family ?(seed = 0) ?stab_time family pattern =
  let n = Sim.Failure_pattern.n pattern in
  let correct = Sim.Failure_pattern.correct pattern in
  match Quorum_family.validate family ~n ~live:correct with
  | Error _ as e -> e
  | Ok () ->
    let stab_time = clamp_stab pattern stab_time in
    let all = Pset.full ~n in
    let faulty = Sim.Failure_pattern.faulty pattern in
    let query p t =
      if Pset.mem p faulty then
        Sim.Fd_value.Quorum
          (faulty_quorum ~seed ~mode:Faulty_split ~all ~faulty p t)
      else
        let pool = if t >= stab_time then correct else all in
        Sim.Fd_value.Quorum
          (Pset.add p (family_quorum family ~n ~seed p t ~pool))
    in
    Ok
      {
        name = Printf.sprintf "Sigma-nu+[%s]" (Quorum_family.name family);
        query;
        stab_time;
      }

let perfect pattern =
  let all = Pset.full ~n:(Sim.Failure_pattern.n pattern) in
  let stab_time = Sim.Failure_pattern.last_crash_time pattern + 1 in
  let query _p t =
    Sim.Fd_value.Quorum
      (Pset.diff all (Sim.Failure_pattern.crashed_set pattern t))
  in
  { name = "Perfect"; query; stab_time }

let perfect_plus pattern =
  let all = Pset.full ~n:(Sim.Failure_pattern.n pattern) in
  let stab_time = Sim.Failure_pattern.last_crash_time pattern + 1 in
  let query p t =
    Sim.Fd_value.Quorum
      (Pset.add p (Pset.diff all (Sim.Failure_pattern.crashed_set pattern t)))
  in
  { name = "Perfect+"; query; stab_time }

let eventually_strong ?(seed = 0) ?stab_time pattern =
  let n = Sim.Failure_pattern.n pattern in
  let stab_time = clamp_stab pattern stab_time in
  let all = Pset.full ~n in
  let query p t =
    if t >= stab_time then
      Sim.Fd_value.Suspects (Sim.Failure_pattern.crashed_set pattern t)
    else
      (* arbitrary early suspicions — but never everybody at once, so a
         coordinator-based algorithm is not starved of all peers *)
      let g = Draw.make ~stream:suspects_stream seed p t in
      let suspects = Pset.random_subset g all in
      Sim.Fd_value.Suspects (Pset.remove (Draw.int g n) suspects)
  in
  { name = "<>S"; query; stab_time }

let pair d d' =
  {
    name = Printf.sprintf "(%s, %s)" d.name d'.name;
    query = (fun p t -> Sim.Fd_value.Pair (d.query p t, d'.query p t));
    stab_time = max d.stab_time d'.stab_time;
  }
