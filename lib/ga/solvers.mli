(** Registration of the metaheuristics in the engine's solver table.

    [ensure ()] registers (idempotently): [ga-tw], [sa-tw] (treewidth);
    [ga-ghw], [sa-ghw], [saiga-ghw] (generalized hypertree width).  All
    run as anytime solvers against the supplied budget: when it has a
    deadline the iteration caps are effectively unbounded and the
    deadline is the stop; without one, moderate default effort caps
    keep the run finite.  Lower bounds are read back from the budget's
    shared incumbent when present (a metaheuristic proves none itself).
    The exact searches live in [Hd_search.Solvers]. *)

val ensure : unit -> unit

(** [saiga ?n_islands run] is the [saiga-ghw] entry's solve with its
    registry settings (60 individuals per island, [n_islands] islands,
    default 4), with the islands driven by [run] — {!Saiga_ghw.run}
    here, [Hd_parallel.Saiga_par.run] for [saiga-ghw-par]. *)
val saiga :
  ?n_islands:int ->
  (?within:Hd_engine.Budget.t ->
  Saiga_ghw.config ->
  Hd_hypergraph.Hypergraph.t ->
  Saiga_ghw.report) ->
  ?seed:int ->
  Hd_engine.Budget.t ->
  Hd_engine.Solver.problem ->
  Hd_engine.Solver.result
