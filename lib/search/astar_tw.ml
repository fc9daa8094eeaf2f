module Search = Ordering_search.Make (Bag_cost.Tw)

let solve ?within ?dedup ?(seed = 0x7ea) g =
  Hd_obs.Obs.with_span "astar_tw.solve" @@ fun () ->
  Ordering_search.int_result (Search.astar ?within ?dedup ~seed g)
