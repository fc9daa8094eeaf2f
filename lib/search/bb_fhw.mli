(** Branch and bound for exact fractional hypertree width.

    The BB-ghw search tree with every integral set cover replaced by
    the exact rational LP optimum rho* ({!Hd_setcover.Fractional}):
    the minimum over elimination orderings of the maximum bag rho*
    equals fhw, because rho* is monotone under bag inclusion, so the
    ordering characterisation of ghw carries over unchanged.  All
    pruning decisions compare exact {!Hd_lp.Rat} values.

    Lower bounds use the fractional k-set-cover argument: a clique
    minor of [c] vertices forces a bag whose fractional cover weighs
    at least [c/k] when hyperedges have at most [k] vertices.

    This is {!Ordering_search.Make.bb} over {!Bag_cost.Fhw}; the
    default seed is [0xfa3]. *)

(** [solve h] computes the exact fhw of [h] (every vertex must lie in
    some hyperedge): [Exact q] is the fractional hypertree width, and
    on an exhausted budget [Bounds { lb; ub }] brackets it, [ub]
    witnessed by the result's ordering, whose largest bag rho* it is.
    The budget behaves as in {!Bb_ghw.solve}; the shared int
    {!Hd_core.Incumbent} (when [within] carries one) receives [ceil]
    of the rational bounds. *)
val solve :
  ?within:Hd_engine.Budget.t ->
  ?seed:int ->
  Hd_hypergraph.Hypergraph.t ->
  Hd_lp.Rat.t Ordering_search.result

(** [to_engine_result r] is [r] with rational bounds collapsed to
    their ceilings — the registry-facing view.  Sound under the
    engine's max-combining of block results since
    [ceil (max a b) = max (ceil a) (ceil b)]; the exact rational is
    recovered from [r.ordering] via {!Hd_core.Eval.fhw_width_q}. *)
val to_engine_result :
  Hd_lp.Rat.t Ordering_search.result -> Hd_engine.Solver.result
