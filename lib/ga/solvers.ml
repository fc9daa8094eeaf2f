module B = Hd_engine.Budget
module S = Hd_engine.Solver
module Incumbent = Hd_core.Incumbent

(* A metaheuristic proves no lower bound of its own; when the budget
   carries a shared incumbent an exact racer may have raised one, so
   the outcome is read back from there.  Otherwise lb = 0. *)
let outcome_of b ub =
  match B.incumbent b with
  | Some inc ->
      let lb, inc_ub = Incumbent.bounds inc in
      let ub = if inc_ub = max_int then ub else min ub inc_ub in
      if lb >= ub then S.Exact ub else S.Bounds { lb; ub }
  | None -> S.Bounds { lb = 0; ub }

(* Effort caps: under a deadline the budget is the real stop, so the
   iteration caps are set out of reach; with an unlimited budget they
   fall back to the moderate defaults so `-m ga-tw` without a
   time limit still terminates. *)
let ga_config ?seed ~default_seed b =
  let deadline = B.time_limit b <> None in
  Ga_engine.default_config ~population_size:300
    ~max_iterations:(if deadline then 100_000 else 100)
    ~seed:(Option.value seed ~default:default_seed) ()

let sa_config ?seed ~default_seed b =
  let deadline = B.time_limit b <> None in
  Local_search.default_config
    ~max_steps:(if deadline then max_int else 20_000)
    ~seed:(Option.value seed ~default:default_seed) ()

let saiga ~n_islands ?seed b p =
  let deadline = B.time_limit b <> None in
  let config =
    Saiga_ghw.default_config ~n_islands ~island_population:60
      ~max_epochs:(if deadline then 10_000 else 40)
      ~seed:(Option.value seed ~default:0x5a16a) ()
  in
  let r = Saiga_ghw.run ~within:b config (S.hypergraph_of p) in
  {
    S.outcome = outcome_of b r.Saiga_ghw.best;
    visited = r.Saiga_ghw.epochs;
    generated = r.Saiga_ghw.evaluations;
    elapsed = r.Saiga_ghw.elapsed;
    ordering = Some r.Saiga_ghw.best_individual;
  }

let ga_result b (r : Ga_engine.report) =
  {
    S.outcome = outcome_of b r.Ga_engine.best;
    visited = r.Ga_engine.iterations;
    generated = r.Ga_engine.evaluations;
    elapsed = r.Ga_engine.elapsed;
    ordering = Some r.Ga_engine.best_individual;
  }

let all =
  [
    {
      S.name = "ga-tw";
      kind = S.Tw;
      doc = "genetic algorithm for treewidth upper bounds (Chapter 6)";
      run =
        (fun ?seed b p ->
          ga_result b
            (Ga_tw.run ~within:b
               (ga_config ?seed ~default_seed:0x9a b)
               (S.primal_of p)));
    };
    {
      S.name = "ga-ghw";
      kind = S.Ghw;
      doc = "genetic algorithm for ghw upper bounds (Section 7.1)";
      run =
        (fun ?seed b p ->
          ga_result b
            (Ga_ghw.run ~within:b
               (ga_config ?seed ~default_seed:0x9b b)
               (S.hypergraph_of p)));
    };
    {
      S.name = "sa-tw";
      kind = S.Tw;
      doc = "simulated annealing on the treewidth objective";
      run =
        (fun ?seed b p ->
          let r =
            Local_search.sa_tw ~within:b
              (sa_config ?seed ~default_seed:0x10ca1 b)
              (S.primal_of p)
          in
    {
            S.outcome = outcome_of b r.Local_search.best;
            visited = r.Local_search.steps;
            generated = r.Local_search.evaluations;
            elapsed = r.Local_search.elapsed;
            ordering = Some r.Local_search.best_individual;
          });
    };
    {
      S.name = "sa-ghw";
      kind = S.Ghw;
      doc = "simulated annealing on the greedy-cover ghw objective";
      run =
        (fun ?seed b p ->
          let r =
            Local_search.sa_ghw ~within:b
              (sa_config ?seed ~default_seed:0x10ca2 b)
              (S.hypergraph_of p)
          in
    {
            S.outcome = outcome_of b r.Local_search.best;
            visited = r.Local_search.steps;
            generated = r.Local_search.evaluations;
            elapsed = r.Local_search.elapsed;
            ordering = Some r.Local_search.best_individual;
          });
    };
    {
      S.name = "saiga-ghw";
      kind = S.Ghw;
      doc = "self-adaptive island GA for ghw (Section 7.2)";
      run = saiga ~n_islands:4;
    };
  ]
