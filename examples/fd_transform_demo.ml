(* Failure-detector transformations, live.

   Left side of the paper (necessity, Fig. 2): given ANY failure
   detector D that can solve nonuniform consensus — here
   D = (Omega, Sigma) with the Mostéfaoui–Raynal algorithm as the
   witness — the transformation T_{D -> Sigma-nu} extracts Sigma-nu
   quorums by simulating runs of the witness over a DAG of samples of
   D.

   Right side (sufficiency, Fig. 3): T_{Sigma-nu -> Sigma-nu+} boosts
   raw Sigma-nu to the self-including, conditionally-nonintersecting
   Sigma-nu+ that A_nuc consumes.

   Both emulated histories are re-validated by the independent
   property checkers.

   Run with: dune exec examples/fd_transform_demo.exe *)
open Procset

module Tx = Core.T_extract.Make (Consensus.Mr.With_quorum)

module Tx_runner = Sim.Runner.Make (Tx)
module Tsp_runner = Sim.Runner.Make (Core.T_sigma_plus)

let report_check name = function
  | Ok () -> Format.printf "  %s: OK@." name
  | Error v -> Format.printf "  %s: VIOLATED — %a@." name Fd.Check.pp_violation v

let () =
  let n = 4 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (2, 40); (3, 70) ] in
  Format.printf "pattern: %a@.@." Sim.Failure_pattern.pp pattern;

  (* ---- Fig. 2: extract Sigma-nu from D = (Omega, Sigma) ---- *)
  Format.printf "T_{D -> Sigma-nu} with D = (Omega, Sigma), witness = \
                 MR-Sigma:@.";
  let d =
    Fd.Oracle.pair
      (Fd.Oracle.omega ~seed:1 ~stab_time:90 pattern)
      (Fd.Oracle.sigma ~seed:1 ~stab_time:90 pattern)
  in
  let run =
    Tx_runner.exec ~seed:1 ~pattern ~fd:d.Fd.Oracle.query
      ~inputs:(fun _ -> ())
      ~max_steps:700 ()
  in
  (* timeline of emulated quorums at p0 *)
  let last = ref Pset.empty in
  Array.iter
    (fun s ->
      if s.Tx_runner.pid = 0 then begin
        let out = Tx.output s.Tx_runner.state_after in
        if not (Pset.equal out !last) then begin
          Format.printf "  t=%4d  p0 emulates quorum %a@." s.Tx_runner.time
            Pset.pp out;
          last := out
        end
      end)
    run.Tx_runner.steps;
  let extractions =
    Array.fold_left (fun acc st -> acc + Tx.extractions st) 0
      run.Tx_runner.states
  in
  Format.printf "  total quorum extractions across processes: %d@." extractions;
  let samples =
    Array.to_list run.Tx_runner.steps
    |> List.map (fun s ->
           ( s.Tx_runner.pid,
             s.Tx_runner.time,
             Sim.Fd_value.Quorum (Tx.output s.Tx_runner.state_after) ))
  in
  let h = Fd.History.of_samples ~n samples in
  report_check "emulated history satisfies Sigma-nu"
    (Fd.Check.sigma_nu ~max_stab:560 pattern h);
  report_check
    "emulated history satisfies full Sigma (witness solves UNIFORM \
     consensus, Thm 5.8)"
    (Fd.Check.sigma ~max_stab:560 pattern h);

  (* ---- Fig. 3: boost Sigma-nu to Sigma-nu+ ---- *)
  Format.printf "@.T_{Sigma-nu -> Sigma-nu+} from a raw (adversarial) \
                 Sigma-nu oracle:@.";
  let nu =
    Fd.Oracle.sigma_nu ~seed:2 ~stab_time:90
      ~faulty_mode:Fd.Oracle.Faulty_split pattern
  in
  let run' =
    Tsp_runner.exec ~seed:2 ~pattern ~fd:nu.Fd.Oracle.query
      ~inputs:(fun _ -> ())
      ~max_steps:700 ()
  in
  Array.iteri
    (fun p st ->
      Format.printf "  final Sigma-nu+ output at p%d: %a@." p Pset.pp
        (Core.T_sigma_plus.output st))
    run'.Tsp_runner.states;
  let samples' =
    Array.to_list run'.Tsp_runner.steps
    |> List.map (fun s ->
           ( s.Tsp_runner.pid,
             s.Tsp_runner.time,
             Sim.Fd_value.Quorum
               (Core.T_sigma_plus.output s.Tsp_runner.state_after) ))
  in
  let h' = Fd.History.of_samples ~n samples' in
  report_check "emulated history satisfies Sigma-nu+ (all four clauses)"
    (Fd.Check.sigma_nu_plus ~max_stab:560 pattern h');
  match Fd.Check.sigma ~max_stab:560 pattern h' with
  | Ok () ->
    Format.printf
      "  note: this particular run also satisfies uniform Sigma (the \
       adversary did not split it)@."
  | Error v ->
    Format.printf
      "  uniform Sigma fails on the same history, as Sigma-nu+ permits: \
       %a@."
      Fd.Check.pp_violation v
