(* Branch and bound for exact fractional hypertree width.

   The ordering characterisation that justifies BB-ghw carries over
   verbatim: rho* is monotone under bag inclusion, so converting any
   fractional hypertree decomposition to an elimination ordering does
   not increase its width, and the minimum over orderings of the
   maximum bag rho* equals fhw.  The search is therefore the BB-ghw
   tree with every integral cover replaced by the exact LP optimum —
   all width comparisons are Rat comparisons, no float and no epsilon
   anywhere on the decision path.

   The incumbent protocol is two-level: the exact rational incumbent
   lives locally (pruning must use it — two orderings with equal
   ceilings can differ fractionally), while ceil(width) is published to
   the shared int Incumbent so portfolios and the engine see sound
   integer bounds on ceil(fhw). *)

module Bitset = Hd_graph.Bitset
module Elim_graph = Hd_graph.Elim_graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Lower_bounds = Hd_bounds.Lower_bounds
module Incumbent = Hd_core.Incumbent
module Eval = Hd_core.Eval
module Rat = Hd_lp.Rat
module Obs = Hd_obs.Obs
open Search_types

type outcome_q = Exact_q of Rat.t | Bounds_q of { lb : Rat.t; ub : Rat.t }

type result_q = {
  outcome_q : outcome_q;
  visited : int;
  generated : int;
  elapsed : float;
  ordering : int array option;
}

exception Out_of_budget

(* rho* of elimination bags, cached by bag content in Eval's LP memo
   (counted as lp.memo_hits/lp.memo_misses) — fractional and integral
   cover costs never share a table *)
module Frac_cover = struct
  type t = {
    hypergraph : Hypergraph.t;
    cache : Rat.t Eval.Bag_tbl.t;
    scratch : Bitset.t;
  }

  let make h =
    {
      hypergraph = h;
      cache = Eval.Bag_tbl.create 4096;
      scratch = Bitset.create (max 1 (Hypergraph.n_vertices h));
    }

  let rho_of t universe = Eval.rho_memoized t.cache t.hypergraph universe

  (* rho* of the elimination bag {v} u N(v) *)
  let bag_width t eg v =
    Bitset.blit ~src:(Elim_graph.adjacency eg v) ~dst:t.scratch;
    Bitset.add t.scratch v;
    rho_of t t.scratch

  (* rho* of all live vertices: every bag of every completion is a
     subset of the live set, and rho* is monotone under inclusion, so
     this upper-bounds the best completion width from here *)
  let completion_width t eg =
    if Elim_graph.n_alive eg = 0 then Rat.zero
    else begin
      Bitset.blit ~src:(Elim_graph.alive eg) ~dst:t.scratch;
      rho_of t t.scratch
    end
end

(* a clique (minor) of c vertices forces a bag of c vertices in every
   decomposition, and any fractional cover of c vertices by hyperedges
   of size at most k has total weight at least c/k — the fractional
   analogue of the k-set-cover bound, without the ceiling *)
let frac_lb_of_elim ~rng ~k eg =
  if Elim_graph.n_alive eg = 0 then Rat.zero
  else Rat.make (Lower_bounds.treewidth_of_elim ~rng ~trials:1 eg + 1) k

let solve ?(budget = no_budget) ?within ?seed h =
  Obs.with_span "bb_fhw.solve" @@ fun () ->
  Ghw_common.check_input h;
  let h = Hypergraph.remove_subsumed h in
  let n = Hypergraph.n_vertices h in
  let ticker =
    match within with
    | Some b -> Search_util.ticker_within b
    | None -> Search_util.make_ticker budget
  in
  let finish outcome_q ordering =
    {
      outcome_q;
      visited = Search_util.visited ticker;
      generated = Search_util.generated ticker;
      elapsed = Search_util.elapsed ticker;
      ordering;
    }
  in
  if n = 0 then finish (Exact_q Rat.zero) (Some [||])
  else begin
    let rng = Random.State.make [| Option.value seed ~default:0xfa3 |] in
    let primal = Hypergraph.primal h in
    let k = max 1 (Hypergraph.max_edge_size h) in
    let eval = Eval.of_hypergraph h in
    let ub_sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
    let best_q = ref (Eval.fhw_width_q eval ub_sigma) in
    let best_sigma = ref ub_sigma in
    let lb0 =
      Rat.max
        (if n > 0 then Rat.one else Rat.zero)
        (Rat.make (Lower_bounds.treewidth ~rng ~trials:1 primal + 1) k)
    in
    let inc =
      match Option.bind within Hd_engine.Budget.incumbent with
      | Some i -> i
      | None -> Incumbent.create ()
    in
    ignore (Incumbent.offer_ub inc ~witness:ub_sigma (Rat.ceil !best_q));
    ignore (Incumbent.raise_lb inc (Rat.ceil lb0));
    if Rat.compare lb0 !best_q >= 0 then
      (* the heuristic ordering already meets the lower bound *)
      finish (Exact_q !best_q) (Some !best_sigma)
    else begin
      let covers = Frac_cover.make h in
      let eg = Elim_graph.of_graph primal in
      let path = ref [] in
      let improve sigma width =
        best_q := width;
        best_sigma := sigma;
        ignore (Incumbent.offer_ub inc ~witness:sigma (Rat.ceil width));
        Obs.Counter.incr Search_util.c_ub_improved
      in
      let rec branch ~g_val ~f_floor ~reduced =
        if Search_util.out_of_budget ticker || Incumbent.cancelled inc then
          raise Out_of_budget;
        Search_util.tick_visited ticker;
        Obs.Counter.incr Search_util.c_expanded;
        let completion = Rat.max g_val (Frac_cover.completion_width covers eg) in
        if Rat.compare completion !best_q < 0 then
          improve (Ghw_common.record_ordering ~n eg !path) completion;
        (* if covering the rest at once already fits in g, nothing
           below this node can improve on the completion just taken *)
        if Rat.compare completion g_val > 0 && Rat.compare f_floor !best_q < 0
        then begin
          let candidates =
            match Elim_graph.find_reducible eg ~lb:(-1) with
            | Some w ->
                Obs.Counter.incr Search_util.c_reductions;
                [ (w, true) ]
            | None ->
                let last = match !path with v :: _ -> v | [] -> -1 in
                let keep u =
                  reduced || last < 0
                  || not
                       (Search_util.prune_child ~adjacent_case:false eg ~last
                          ~candidate:u)
                in
                List.rev
                  (Elim_graph.fold_alive
                     (fun u acc -> if keep u then (u, false) :: acc else acc)
                     eg [])
          in
          let candidates =
            List.sort
              (fun (a, _) (b, _) ->
                compare (Elim_graph.degree eg a) (Elim_graph.degree eg b))
              candidates
          in
          List.iter
            (fun (v, via_reduction) ->
              Search_util.tick_generated ticker;
              Obs.Counter.incr Search_util.c_generated;
              let c = Frac_cover.bag_width covers eg v in
              let g'' = Rat.max g_val c in
              if Rat.compare g'' !best_q < 0 then begin
                Elim_graph.eliminate eg v;
                path := v :: !path;
                let h_val =
                  if Elim_graph.n_alive eg <= 1 then Rat.zero
                  else frac_lb_of_elim ~rng ~k eg
                in
                let f = Rat.max (Rat.max g'' h_val) f_floor in
                if Rat.compare f !best_q < 0 then
                  branch ~g_val:g'' ~f_floor:f ~reduced:via_reduction;
                path := List.tl !path;
                Elim_graph.restore_last eg
              end)
            candidates
        end
      in
      match branch ~g_val:Rat.zero ~f_floor:lb0 ~reduced:false with
      | () ->
          (* exhausted the ordering tree: the incumbent is optimal *)
          ignore (Incumbent.raise_lb inc (Rat.ceil !best_q));
          finish (Exact_q !best_q) (Some !best_sigma)
      | exception Out_of_budget ->
          finish
            (Bounds_q { lb = Rat.min lb0 !best_q; ub = !best_q })
            (Some !best_sigma)
    end
  end

(* bridge to the int-valued engine result: report ceilings, keep the
   witness ordering — callers recover the exact rational by
   re-evaluating it with Eval.fhw_width_q *)
let to_engine_result r =
  let outcome =
    match r.outcome_q with
    | Exact_q q -> Exact (Rat.ceil q)
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
