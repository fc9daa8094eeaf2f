(** The metaheuristics as engine solver entries.

    {!all} lists, in order: [ga-tw], [ga-ghw], [sa-tw], [sa-ghw],
    [saiga-ghw] ([-tw]: treewidth, [-ghw]: generalized hypertree
    width).  This module registers nothing:
    [Hd_parallel.Registry.ensure] puts them into the table, with the
    exact searches of [Hd_search.Solvers].  All run as anytime solvers
    against the supplied budget: when it has a deadline the iteration
    caps are effectively unbounded and the deadline is the stop;
    without one, moderate default effort caps keep the run finite.
    Lower bounds are read back from the budget's shared incumbent when
    present (a metaheuristic proves none itself). *)

val all : Hd_engine.Solver.t list

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
