(* The contamination scenario of Section 6.3, narrated.

   Substituting Sigma-nu quorums naively into the Mostéfaoui–Raynal
   algorithm breaks nonuniform agreement: a scripted adversary makes
   two CORRECT processes decide 0 and 1 under a perfectly legal
   (Omega, Sigma-nu) history. A_nuc's distrust machinery and quorum
   awareness are then shown to survive the same adversary family.

   Run with: dune exec examples/contamination_demo.exe *)

let () =
  Format.printf "=== naive MR + Sigma-nu quorums under the Section 6.3 \
                 adversary ===@.@.";
  let o = Core.Scenario.contamination_naive_mr () in
  List.iter (fun line -> Format.printf "  %s@." line) o.Core.Scenario.trace;
  Format.printf "@.decisions: ";
  Array.iteri
    (fun p d ->
      Format.printf "p%d=%a  " p Consensus.Value.pp_opt d)
    o.Core.Scenario.decisions;
  Format.printf "@.agreement violated among correct processes: %b@."
    o.Core.Scenario.agreement_violated;
  (match o.Core.Scenario.history_valid with
  | Ok () ->
    Format.printf
      "the adversary's history is a LEGAL (Omega, Sigma-nu) history — \
       the algorithm, not the detector, is at fault@."
  | Error v ->
    Format.printf "unexpected: invalid adversary history (%a)@."
      Fd.Check.pp_violation v);

  Format.printf
    "@.=== A_nuc under the same adversary family (split quorums, \
     faulty-first Omega) ===@.@.";
  let n = 4 in
  let violations = ref 0 and runs = ref 0 in
  List.iter
    (fun seed ->
      let pattern =
        Sim.Failure_pattern.make ~n ~crashes:[ (2, 150); (3, 150) ]
      in
      let oracle =
        Fd.Oracle.pair
          (Fd.Oracle.omega ~seed ~prestab:Fd.Oracle.Omega_faulty_first
             ~stab_time:120 pattern)
          (Fd.Oracle.sigma_nu_plus ~seed ~faulty_mode:Fd.Oracle.Faulty_split
             ~stab_time:120 pattern)
      in
      let r =
        Consensus.Spec.decide (module Core.Anuc) ~seed ~pattern
          ~fd:oracle.Fd.Oracle.query
          ~proposals:(fun p -> if p < 2 then 0 else 1)
          ~max_steps:8000 ()
      in
      incr runs;
      let outcome = r.Consensus.Spec.outcome in
      match Consensus.Spec.check Consensus.Spec.Nonuniform outcome with
      | Ok () -> ()
      | Error e ->
        incr violations;
        Format.printf "  seed %d: %s@." seed e)
    (List.init 20 (fun i -> i));
  Format.printf "  %d adversarial runs, %d violations@." !runs !violations;
  if !violations = 0 then
    Format.printf
      "A_nuc resists the adversary that breaks the naive algorithm.@."
