module Search = Ordering_search.Make (Bag_cost.Tw)

let solve ?budget ?within ?dedup ?incumbent ?(seed = 0x7ea) g =
  Hd_obs.Obs.with_span "astar_tw.solve" @@ fun () ->
  Ordering_search.int_result
    (Search.astar ?budget ?within ?incumbent ?dedup ~seed g)

let solve_hypergraph ?budget ?within ?dedup ?incumbent ?seed h =
  solve ?budget ?within ?dedup ?incumbent ?seed
    (Hd_hypergraph.Hypergraph.primal h)
