module Rat = Hd_lp.Rat
module Search = Ordering_search.Make (Bag_cost.Fhw)

type outcome_q = Exact_q of Rat.t | Bounds_q of { lb : Rat.t; ub : Rat.t }

type result_q = {
  outcome_q : outcome_q;
  visited : int;
  generated : int;
  elapsed : float;
  ordering : int array option;
}

let solve ?within ?(seed = 0xfa3) h =
  Hd_obs.Obs.with_span "bb_fhw.solve" @@ fun () ->
  let r = Search.bb ?within ~seed h in
  {
    outcome_q =
      (match r.outcome with
      | Exact q -> Exact_q q
      | Bounds { lb; ub } -> Bounds_q { lb; ub });
    visited = r.visited;
    generated = r.generated;
    elapsed = r.elapsed;
    ordering = r.ordering;
  }

(* bridge to the int-valued engine result: report ceilings, keep the
   witness ordering — callers recover the exact rational by
   re-evaluating it with Eval.fhw_width_q *)
let to_engine_result r =
  let outcome =
    match r.outcome_q with
    | Exact_q q -> Search_types.Exact (Rat.ceil q)
    | Bounds_q { lb; ub } ->
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
