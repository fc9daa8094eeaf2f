module Rat = Hd_lp.Rat
module Search = Ordering_search.Make (Bag_cost.Fhw)

let solve ?within ?(seed = 0xfa3) h =
  Hd_obs.Obs.with_span "bb_fhw.solve" @@ fun () -> Search.bb ?within ~seed h

(* bridge to the int-valued engine result: report ceilings, keep the
   witness ordering — callers recover the exact rational by
   re-evaluating it with Eval.fhw_width_q *)
let to_engine_result (r : Rat.t Ordering_search.result) =
  let outcome =
    match r.outcome with
    | Exact q -> Search_types.Exact (Rat.ceil q)
    | Bounds { lb; ub } ->
        let lb = max 0 (Rat.ceil lb) and ub = Rat.ceil ub in
        if lb >= ub then Exact ub else Bounds { lb; ub }
  in
  {
    Hd_engine.Solver.outcome;
    visited = r.visited;
    generated = r.generated;
    elapsed = r.elapsed;
    ordering = r.ordering;
  }
