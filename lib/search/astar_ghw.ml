module Search = Ordering_search.Make (Bag_cost.Ghw)

let solve ?within ?dedup ?(seed = 0xa5a) h =
  Hd_obs.Obs.with_span "astar_ghw.solve" @@ fun () ->
  Ordering_search.int_result (Search.astar ?within ?dedup ~seed h)
