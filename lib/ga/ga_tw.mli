(** GA-tw (Chapter 6): genetic algorithm for treewidth upper bounds.

    Individuals are elimination orderings; fitness is the width of the
    tree decomposition bucket elimination builds from the ordering
    (Figure 6.2).  The returned report's [best] is an upper bound on
    the treewidth and [best_individual] a witness ordering. *)

val run :
  ?within:Hd_engine.Budget.t ->
  Ga_engine.config ->
  Hd_graph.Graph.t ->
  Ga_engine.report
(** [within] is the run's budget; its incumbent, if any, receives the
    width upper bounds.  See {!Ga_engine.run}. *)

(** [decomposition g report] materialises the witness tree
    decomposition. *)
val decomposition :
  Hd_graph.Graph.t -> Ga_engine.report -> Hd_core.Tree_decomposition.t

(** [run_weighted config g ~domain_sizes] minimises the Section 4.5
    triangulation weight instead of the width — the original objective
    of the Bayesian-network GA the paper builds on.  The integer
    fitness is the weight in units of 1/64 bits; the run is bounded by
    [config.max_iterations] alone. *)
val run_weighted :
  Ga_engine.config -> Hd_graph.Graph.t -> domain_sizes:int array -> Ga_engine.report
