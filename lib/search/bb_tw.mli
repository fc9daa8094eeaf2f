(** BB-tw: depth-first branch and bound for treewidth (Section 4.4).

    {!Ordering_search.Make.bb} over {!Bag_cost.Tw}: the same
    ingredients as {!Astar_tw} — elimination-ordering search space,
    min-fill upper bound, minor-based lower bounds, simplicial /
    strongly-almost-simplicial reductions, pruning rules PR1 and PR2 —
    explored depth-first with an anytime upper bound, as in the
    algorithms QuickBB and BB-tw the paper compares against.  The
    default seed is [0xb0b]. *)

(** [use_pr2] and [use_reductions] (both on by default) exist for the
    pruning ablation bench.  [within] is the run's one budget (default:
    unlimited); when it carries an incumbent the search shares bounds
    with racing solvers (hd_parallel portfolio): pruning reads the
    shared upper bound, every improvement is published with its
    witness, and the search stops early when the incumbent closes or
    is cancelled. *)
val solve :
  ?within:Hd_engine.Budget.t ->
  ?seed:int ->
  ?use_pr2:bool ->
  ?use_reductions:bool ->
  Hd_graph.Graph.t ->
  Search_types.result
