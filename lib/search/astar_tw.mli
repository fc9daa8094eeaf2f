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

(** [solve ?within ?dedup ?seed g] computes the treewidth of [g].

    [dedup] additionally merges states that eliminated the same vertex
    set (an extension over the paper, off by default; see the
    [astar-dedup] ablation).  [seed] fixes the randomised tie-breaking
    of the bound heuristics.  [within] is the run's one
    {!Hd_engine.Budget.t} (default: unlimited): deadline, state cap,
    cancellation and, when it carries one, the incumbent shared with
    racing solvers (hd_parallel portfolio).  The search prunes against
    the shared upper bound, publishes its own improvements and
    frontier lower bounds, and returns [Bounds] once the budget runs
    out or its incumbent closes.  Every solver entry point in the tree
    takes the same [within]. *)
val solve :
  ?within:Hd_engine.Budget.t ->
  ?dedup:bool ->
  ?seed:int ->
  Hd_graph.Graph.t ->
  Search_types.result
