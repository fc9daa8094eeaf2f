module S = Hd_engine.Solver
module Budget = Hd_engine.Budget
module Scheduler = Hd_engine.Scheduler

let registered = ref false

let ensure () =
  if not !registered then begin
    registered := true;
    S.register
      {
        S.name = "astar-tw-par";
        kind = S.Tw;
        doc = "hash-distributed parallel A* treewidth (HDA* on the scheduler)";
        run =
          (fun ?seed b p ->
            Hd_search.Solvers.of_int
              (Hdastar.solve_tw ~within:b ?seed (S.primal_of p)));
      };
    S.register
      {
        S.name = "astar-ghw-par";
        kind = S.Ghw;
        doc = "hash-distributed parallel A* ghw (HDA* on the scheduler)";
        run =
          (fun ?seed b p ->
            Hd_search.Solvers.of_int
              (Hdastar.solve_ghw ~within:b ?seed (S.hypergraph_of p)));
      };
    S.register
      {
        S.name = "saiga-ghw-par";
        kind = S.Ghw;
        doc = "saiga-ghw with one island per scheduler executor";
        run =
          (fun ?seed b p ->
            let n_islands =
              match Budget.scheduler b with
              | Some s -> Scheduler.size s + 1
              | None -> 1
            in
            Hd_ga.Solvers.saiga ~n_islands Saiga_par.run ?seed b p);
      }
  end
