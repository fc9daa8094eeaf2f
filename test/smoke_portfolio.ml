(* 5-second portfolio smoke test for the @runtest-quick alias: race the
   treewidth roster on grid4 and insist on the known optimum. *)

module Solver = Hd_engine.Solver

let () =
  let g =
    match Hd_instances.Graphs.by_name "grid4" with
    | Some g -> g
    | None -> failwith "grid4 instance missing"
  in
  let budget = { Hd_engine.Budget.time_limit = Some 5.0; max_states = None } in
  let r = Hd_parallel.Portfolio.solve_tw ~jobs:2 ~budget ~seed:1 g in
  Format.printf "portfolio smoke: grid4 %a@." Hd_parallel.Portfolio.pp r;
  match r.Hd_parallel.Portfolio.outcome with
  | Solver.Exact 4 -> ()
  | Solver.Exact w ->
      Format.eprintf "expected width 4 on grid4, got %d@." w;
      exit 1
  | Solver.Bounds { lb; ub } ->
      Format.eprintf "portfolio failed to close grid4 in 5s: [%d,%d]@." lb ub;
      exit 1
