module Search = Ordering_search.Make (Bag_cost.Tw)

let solve ?budget ?within ?incumbent ?(seed = 0xb0b) ?use_pr2 ?use_reductions
    g =
  Hd_obs.Obs.with_span "bb_tw.solve" @@ fun () ->
  Ordering_search.int_result
    (Search.bb ?budget ?within ?incumbent ?use_pr2 ?use_reductions ~seed g)

let solve_hypergraph ?budget ?within ?incumbent ?seed h =
  solve ?budget ?within ?incumbent ?seed (Hd_hypergraph.Hypergraph.primal h)
