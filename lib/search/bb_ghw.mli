(** BB-ghw: branch and bound for generalized hypertree width
    (Chapter 8).

    Chapter 3 licenses searching elimination orderings: some ordering,
    with every bag's set cover solved exactly, realises ghw (Theorem 3).
    The search walks orderings of the primal graph depth-first; a
    state's [g] is the largest exact cover of a bag created so far, its
    [h] the tw-ksc-width lower bound (Section 8.1) of the remaining
    minor.  Simplicial reduction (Section 8.2), the non-adjacent case of
    pruning rule PR2 and the PR1-style completion bound — covering all
    remaining vertices at once — shrink the tree (Section 8.3).  Exact
    bag covers are memoised across the whole run.

    This is {!Ordering_search.Make.bb} over {!Bag_cost.Ghw}, or
    {!Bag_cost.Ghw_greedy} for greedy covers; the default seed is
    [0x6b6]. *)

type cover_mode =
  [ `Exact  (** optimal lambda per bag: the search is an exact method *)
  | `Greedy  (** greedy covers: faster, upper bounds only (ablation) *) ]

val solve :
  ?within:Hd_engine.Budget.t ->
  ?seed:int ->
  ?cover:cover_mode ->
  Hd_hypergraph.Hypergraph.t ->
  Search_types.result
(** [within] is the run's budget, exactly as in {!Bb_tw.solve}. *)
