(** A*-ghw: best-first exact search for generalized hypertree width
    (Chapter 9).

    The state space of {!Bb_ghw} explored best-first as in {!Astar_tw}:
    [g] is the largest exact bag cover on the path, [h] the
    tw-ksc-width bound of the remaining minor and
    [f = max (g, h, parent.f)].  The f-value of the last visited state
    is a valid ghw lower bound when the budget runs out — the anytime
    behaviour Table 9.1 reports.

    This is {!Ordering_search.Make.astar} over {!Bag_cost.Ghw}; the
    default seed is [0xa5a]. *)

val solve :
  ?within:Hd_engine.Budget.t ->
  ?dedup:bool ->
  ?seed:int ->
  Hd_hypergraph.Hypergraph.t ->
  Search_types.result
(** [within] is the run's budget, exactly as in {!Astar_tw.solve}. *)
