let run ?within config g =
  let ws = Hd_core.Eval.of_graph g in
  Ga_engine.run ?within config ~n_genes:(Hd_graph.Graph.n g)
    ~eval:(Hd_core.Eval.tw_width ws)

let decomposition g (report : Ga_engine.report) =
  Hd_core.Tree_decomposition.of_ordering g report.Ga_engine.best_individual

let run_weighted config g ~domain_sizes =
  let ws = Hd_core.Eval.of_graph g in
  let eval sigma =
    int_of_float
      (Float.round
         (64.0 *. Hd_core.Eval.weighted_width ws ~domain_sizes sigma))
  in
  (* the default budget has no incumbent: the weight is not a width,
     so it must never be published as a bound *)
  Ga_engine.run config ~n_genes:(Hd_graph.Graph.n g) ~eval
