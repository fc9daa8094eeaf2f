let run ?within config h =
  let ws =
    Hd_core.Eval.of_hypergraph ~seed:(config.Ga_engine.seed lxor 0x5c) h
  in
  Ga_engine.run ?within config
    ~n_genes:(Hd_hypergraph.Hypergraph.n_vertices h)
    ~eval:(Hd_core.Eval.ghw_width ws)

let decomposition ?(cover = `Exact) h (report : Ga_engine.report) =
  Hd_core.Ghd.of_ordering h report.Ga_engine.best_individual ~cover
