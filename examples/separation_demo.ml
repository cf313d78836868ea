(* The Theorem 7.1 crossover, live: (Omega, Sigma-nu) vs (Omega, Sigma)
   in E_t.

   Below half failures (t < n/2) Sigma is implementable from scratch —
   the round-based "wait for n-t" algorithm emulates it, and the
   two-run attack cannot even pick a partition. At half and above
   (t >= n/2), the attack builds two indistinguishable runs R and R'
   and harvests provably disjoint quorums: no algorithm can emulate
   Sigma, while the same pair of quorums is perfectly legal for
   Sigma-nu+ — the exact gap between uniform and nonuniform consensus.

   Run with: dune exec examples/separation_demo.exe *)
open Procset
module Scratch = Core.Separation.Sigma_scratch
module Scratch_runner = Sim.Runner.Make (Scratch)
module Attack_scratch = Core.Separation.Attack (Scratch)

module Attack_tsp = Core.Separation.Attack (Core.T_sigma_plus)

let () =
  let n = 4 in
  Format.printf "=== n = %d, t = 1 (< n/2): Sigma from scratch works ===@." n;
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (3, 30) ] in
  let run =
    Scratch_runner.exec ~seed:0 ~pattern
      ~fd:(fun _ _ -> Sim.Fd_value.Unit)
      ~inputs:(fun _ -> 1)
      ~max_steps:500 ()
  in
  Array.iteri
    (fun p st ->
      Format.printf "  p%d completed %d rounds, final quorum %a@." p
        (Scratch.rounds_completed st)
        Pset.pp (Scratch.output st))
    run.Scratch_runner.states;
  let samples =
    Array.to_list run.Scratch_runner.steps
    |> List.map (fun s ->
           ( s.Scratch_runner.pid,
             s.Scratch_runner.time,
             Sim.Fd_value.Quorum
               (Scratch.output s.Scratch_runner.state_after) ))
  in
  (match
     Fd.Check.sigma ~max_stab:400 pattern (Fd.History.of_samples ~n samples)
   with
  | Ok () -> Format.printf "  emulated history satisfies Sigma: OK@."
  | Error v -> Format.printf "  Sigma VIOLATED: %a@." Fd.Check.pp_violation v);
  (match Attack_scratch.run ~n ~t:1 ~inputs:(fun _ -> 1) () with
  | Error e -> Format.printf "  two-run attack refuses: %s@." e
  | Ok _ -> Format.printf "  unexpected: attack ran below n/2@.");

  Format.printf "@.=== n = %d, t = 2 (>= n/2): the two-run attack ===@." n;
  (match Attack_scratch.run ~n ~t:2 ~inputs:(fun _ -> 2) () with
  | Ok o -> Format.printf "%a@." Attack_scratch.pp_outcome o
  | Error e -> Format.printf "attack failed: %s@." e);

  Format.printf
    "@.=== the same attack against T_(Sigma-nu -> Sigma-nu+) ===@.";
  match Attack_tsp.run ~n ~t:2 ~inputs:(fun _ -> ()) ~max_steps:4000 () with
  | Ok o ->
    Format.printf "%a@." Attack_tsp.pp_outcome o;
    Format.printf
      "but the nonintersecting quorum %a consists of processes that are \
       FAULTY in R', so Sigma-nu+'s conditional nonintersection holds — \
       nonuniform consensus survives where uniform consensus cannot.@."
      Pset.pp o.Attack_tsp.quorum_a
  | Error e -> Format.printf "attack failed: %s@." e
