(** A*-tw: the best-first exact treewidth algorithm of Chapter 5.

    States are partial elimination orderings; [g] is the width of the
    partial ordering, [h] a minor-based lower bound on the treewidth of
    the remaining graph, and [f = max (g, h, parent.f)] the admissible
    evaluation driving a best-first search.  Simplicial /
    strongly-almost-simplicial reductions force single-child states and
    pruning rule PR2 removes swap-equivalent sibling branches; states
    whose [f] reaches the min-fill upper bound are discarded.  On an
    exhausted budget the largest [f] visited is reported as a treewidth
    lower bound (Section 5.3).

    This is {!Ordering_search.Make.astar} over {!Bag_cost.Tw}: each
    expanded state offers one completion, its [g] or the live vertex
    count minus one, whichever is larger.  The default seed is
    [0x7ea]. *)

(** [solve ?budget ?dedup ?seed g] computes the treewidth of [g].

    [dedup] additionally merges states that eliminated the same vertex
    set (an extension over the paper, off by default; see the
    [astar-dedup] ablation).  [seed] fixes the randomised tie-breaking
    of the bound heuristics.  [incumbent] shares bounds with racing
    solvers (hd_parallel portfolio): the search prunes against the
    shared upper bound, publishes its own improvements and frontier
    lower bounds, returns [Exact] as soon as the incumbent closes and
    [Bounds] when it is cancelled.  [within] attaches the run to an
    already-running {!Hd_engine.Budget.t} (deadline, state cap,
    cancellation flag and — unless [incumbent] overrides it — the
    budget's incumbent), taking precedence over [budget]; every solver
    entry point in the tree accepts the same pair. *)
val solve :
  ?budget:Search_types.budget ->
  ?within:Hd_engine.Budget.t ->
  ?dedup:bool ->
  ?incumbent:Hd_core.Incumbent.t ->
  ?seed:int ->
  Hd_graph.Graph.t ->
  Search_types.result

(** [solve_hypergraph ?budget ?dedup ?seed h] is treewidth of [h]'s
    primal graph, which by Lemma 1 is the treewidth of [h]. *)
val solve_hypergraph :
  ?budget:Search_types.budget ->
  ?within:Hd_engine.Budget.t ->
  ?dedup:bool ->
  ?incumbent:Hd_core.Incumbent.t ->
  ?seed:int ->
  Hd_hypergraph.Hypergraph.t ->
  Search_types.result
