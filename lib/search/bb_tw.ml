module Search = Ordering_search.Make (Bag_cost.Tw)

let solve ?within ?(seed = 0xb0b) ?use_pr2 ?use_reductions g =
  Hd_obs.Obs.with_span "bb_tw.solve" @@ fun () ->
  Ordering_search.int_result
    (Search.bb ?within ?use_pr2 ?use_reductions ~seed g)
