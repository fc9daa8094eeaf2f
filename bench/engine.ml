(* monolithic vs decompose-by-blocks solving through the engine: the
   block-splitting payoff on articulation-point chains (and its
   no-regression on biconnected instances), recorded as
   BENCH_report.json's "engine" section *)

open Harness

let run scale =
  header "Engine -- monolithic vs decompose-by-blocks";
  Hd_parallel.Registry.ensure ();
  let cases =
    [
      (* biconnected: the split pass must cost nothing *)
      ("queen5_5", "bb-tw");
      ("myciel4", "astar-tw");
      (* articulation-point chains: one hard block repeated *)
      ("blocks2-queen5_5", "bb-tw");
      ("blocks3-grid4", "astar-tw");
    ]
  in
  Printf.printf "%-18s %-10s | %9s %8s | %9s %8s | %7s\n" "instance" "solver"
    "mono" "mono-s" "split" "split-s" "speedup";
  let entries =
    List.map
      (fun (name, solver) ->
        let g = graph name in
        let problem = Hd_engine.Solver.Graph g in
        let run ~blocks =
          Hd_engine.Engine.run_by_name ~blocks ~seed:1 solver
            (Hd_engine.Budget.create ~time_limit:scale.time_limit ())
            problem
        in
        let mono = run ~blocks:false in
        let split = run ~blocks:true in
        let speedup =
          if split.Hd_engine.Solver.elapsed > 0.0 then
            mono.Hd_engine.Solver.elapsed /. split.Hd_engine.Solver.elapsed
          else 1.0
        in
        Printf.printf
          "%-18s %-10s | %9s %7.3fs | %9s %7.3fs | %6.1fx\n" name solver
          (outcome_string mono.Hd_engine.Solver.outcome)
          mono.Hd_engine.Solver.elapsed
          (outcome_string split.Hd_engine.Solver.outcome)
          split.Hd_engine.Solver.elapsed speedup;
        Obs.Json.Obj
          [
            ("instance", Obs.Json.String name);
            ("solver", Obs.Json.String solver);
            ( "monolithic",
              Obs.Json.Obj
                [
                  ( "outcome",
                    Obs.Json.String
                      (outcome_string mono.Hd_engine.Solver.outcome) );
                  ("seconds", Obs.Json.Float mono.Hd_engine.Solver.elapsed);
                ] );
            ( "blocks",
              Obs.Json.Obj
                [
                  ( "outcome",
                    Obs.Json.String
                      (outcome_string split.Hd_engine.Solver.outcome) );
                  ("seconds", Obs.Json.Float split.Hd_engine.Solver.elapsed);
                ] );
            ("speedup", Obs.Json.Float speedup);
          ])
      cases
  in
  section "engine" (Obs.Json.Obj [ ("instances", Obs.Json.List entries) ])
