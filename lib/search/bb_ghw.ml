type cover_mode = [ `Exact | `Greedy ]

module Exact = Ordering_search.Make (Bag_cost.Ghw)
module Greedy = Ordering_search.Make (Bag_cost.Ghw_greedy)

let solve ?within ?(seed = 0x6b6) ?(cover = `Exact) h =
  Hd_obs.Obs.with_span "bb_ghw.solve" @@ fun () ->
  Ordering_search.int_result
    (match cover with
    | `Exact -> Exact.bb ?within ~seed h
    | `Greedy -> Greedy.bb ?within ~seed h)
