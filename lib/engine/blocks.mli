(** Decompose-by-blocks: solve each biconnected component of the
    primal graph separately and recombine.

    Treewidth and (generalized) hypertree width both decompose over
    the biconnected components ("blocks") of the primal graph: two
    blocks share at most one vertex, every hyperedge — a primal clique
    — lies inside exactly one block, and the width of the whole is the
    maximum over the blocks (the divide-and-conquer step the
    Gottlob–Samer det-k-decomp implementation and the HyperBench
    tooling rely on).  [solve] applies the split uniformly in front of
    any registered solver: each block gets an equal share of the
    remaining budget (unspent time rolls over), witnesses are re-rooted
    at the cut vertices and concatenated bottom-up into one global
    elimination ordering, and combined bounds are published to the
    budget's incumbent.

    Soundness note: per-block runs deliberately do {e not} share the
    caller's incumbent — an upper bound proved on one block must not
    prune the search on another.  Cancellation still reaches every
    block through the shared budget flag. *)

type block = {
  vertices : int array;
      (** the block's vertices, as sorted global ids; local vertex [i]
          of the block sub-problem is [vertices.(i)] *)
  attach : int;
      (** local index of the cut vertex connecting this block to its
          parent in the block-cut tree, or [-1] for the root block of
          its connected component *)
}

(** [split g] is the list of biconnected components of [g] (isolated
    vertices become singleton blocks), emitted bottom-up: every
    non-root block appears before the block containing its attach
    vertex's other occurrences, so eliminating the blocks in list
    order — each block's non-attach vertices along its own ordering —
    is a valid global elimination. *)
val split : Hd_graph.Graph.t -> block list

(** [solve solver budget problem] runs [solver] on every block of
    [problem] and recombines: width = max over blocks, [Exact] iff
    every block was solved exactly, witness orderings stitched at the
    cut vertices.  Instances with at most one block (and runs with
    [~split_blocks:false]) skip straight to the solver with [budget]
    untouched.  Block [i] of [nb] gets [Budget.sub ~stages:(nb - i)],
    cut when it starts.  The block solves go through {!Step.run_all},
    the one fork rule: they fork onto the budget's scheduler when it
    carries one and no slice is armed, and otherwise run in index order
    on the calling domain.  Either way one combine pass, in index
    order, stitches the result.  Counters: [engine.blocks],
    [engine.block_skips]. *)
val solve :
  ?split_blocks:bool ->
  ?seed:int ->
  Solver.t ->
  Budget.t ->
  Solver.problem ->
  Solver.result
