module B = Hd_engine.Budget
module S = Hd_engine.Solver
module Incumbent = Hd_core.Incumbent

let register ~name ~kind ~doc run = S.register { S.name; kind; doc; run }

(* a quick one-shot ordering heuristic as an anytime solver: evaluate
   the ordering, publish it, report Bounds (no lower bound proved) *)
let heuristic ~default_seed ~width ordering_of ?seed b p =
  let (w, sigma), secs =
    Hd_engine.Clock.time @@ fun () ->
    let rng =
      Random.State.make [| Option.value seed ~default:default_seed |]
    in
    let sigma = ordering_of rng p in
    (width rng p sigma, sigma)
  in
  B.publish b ~witness:sigma w;
  {
    S.outcome = S.Bounds { lb = 0; ub = w };
    visited = 0;
    generated = 1;
    elapsed = secs;
    ordering = Some sigma;
  }

let tw_width _rng p sigma =
  let ws = Hd_core.Eval.of_graph (S.primal_of p) in
  Hd_core.Eval.tw_width ws sigma

let ghw_width rng p sigma =
  let ws = Hd_core.Eval.of_hypergraph (S.hypergraph_of p) in
  Hd_core.Eval.ghw_width ~rng ws sigma

(* fhw is rational; the int-valued registry carries its ceiling (the
   exact value is recovered from the witness via Eval.fhw_width_q) *)
let fhw_width_ceil _rng p sigma =
  let ws = Hd_core.Eval.of_hypergraph (S.hypergraph_of p) in
  Hd_lp.Rat.ceil (Hd_core.Eval.fhw_width_q ws sigma)

let det_k ?seed b p =
  ignore seed;
  let h = S.hypergraph_of p in
  let tk = B.ticker b in
  let r, secs =
    Hd_engine.Clock.time @@ fun () ->
    match Det_k_decomp.search tk h with
    | w, _hd -> S.Exact w
    | exception Det_k_decomp.Timeout lb ->
        S.Bounds { lb; ub = max lb (max 1 (Hd_hypergraph.Hypergraph.n_edges h)) }
  in
  (match (r, B.incumbent b) with
  | S.Exact w, Some inc ->
      ignore (Incumbent.offer_ub inc w);
      ignore (Incumbent.raise_lb inc w)
  | _ -> ());
  { S.outcome = r; visited = 0; generated = B.generated tk; elapsed = secs;
    ordering = None }

let registered = ref false

let ensure () =
  if not !registered then begin
    registered := true;
    let tw ~name ~doc run =
      register ~name ~kind:S.Tw ~doc (fun ?seed b p ->
          run ?seed ~within:b (S.primal_of p))
    in
    let ghw ~name ~doc run =
      register ~name ~kind:S.Ghw ~doc (fun ?seed b p ->
          run ?seed ~within:b (S.hypergraph_of p))
    in
    tw ~name:"astar-tw" ~doc:"best-first exact treewidth (Chapter 5)"
      (fun ?seed ~within g -> Astar_tw.solve ~within ?seed g);
    tw ~name:"astar-tw-dedup"
      ~doc:"A*-tw merging states with equal eliminated sets"
      (fun ?seed ~within g -> Astar_tw.solve ~within ~dedup:true ?seed g);
    tw ~name:"bb-tw" ~doc:"depth-first branch and bound (Section 4.4)"
      (fun ?seed ~within g -> Bb_tw.solve ~within ?seed g);
    tw ~name:"bb-tw-nopr2" ~doc:"BB-tw without pruning rule PR2 (ablation)"
      (fun ?seed ~within g -> Bb_tw.solve ~within ~use_pr2:false ?seed g);
    tw ~name:"bb-tw-noreduce"
      ~doc:"BB-tw without simplicial reductions (ablation)"
      (fun ?seed ~within g -> Bb_tw.solve ~within ~use_reductions:false ?seed g);
    tw ~name:"preprocess-tw"
      ~doc:"Bodlaender-style kernelization, then A*-tw on the kernel"
      (fun ?seed ~within g ->
        Preprocess.treewidth_with_preprocessing ~within ?seed g);
    register ~name:"min-fill" ~kind:S.Tw
      ~doc:"min-fill elimination ordering (upper bound only)"
      (heuristic ~default_seed:0x3f1 ~width:tw_width (fun rng p ->
           Hd_core.Ordering_heuristics.min_fill rng (S.primal_of p)));
    register ~name:"min-degree" ~kind:S.Tw
      ~doc:"min-degree elimination ordering (upper bound only)"
      (heuristic ~default_seed:0x3f2 ~width:tw_width (fun rng p ->
           Hd_core.Ordering_heuristics.min_degree rng (S.primal_of p)));
    register ~name:"mcs" ~kind:S.Tw
      ~doc:"maximum-cardinality-search ordering (upper bound only)"
      (heuristic ~default_seed:0x3f3 ~width:tw_width (fun rng p ->
           Hd_core.Ordering_heuristics.max_cardinality rng (S.primal_of p)));
    ghw ~name:"astar-ghw" ~doc:"best-first exact ghw (Chapter 9)"
      (fun ?seed ~within h -> Astar_ghw.solve ~within ?seed h);
    ghw ~name:"astar-ghw-dedup"
      ~doc:"A*-ghw merging states with equal eliminated sets"
      (fun ?seed ~within h -> Astar_ghw.solve ~within ~dedup:true ?seed h);
    ghw ~name:"bb-ghw" ~doc:"branch and bound for ghw (Chapter 8)"
      (fun ?seed ~within h -> Bb_ghw.solve ~within ?seed h);
    ghw ~name:"bb-ghw-greedy"
      ~doc:"BB-ghw with greedy covers (upper bounds only, ablation)"
      (fun ?seed ~within h -> Bb_ghw.solve ~within ~cover:`Greedy ?seed h);
    register ~name:"min-fill-ghw" ~kind:S.Ghw
      ~doc:"min-fill ordering with greedy covers (upper bound only)"
      (heuristic ~default_seed:0x3f4 ~width:ghw_width (fun rng p ->
           Hd_core.Ordering_heuristics.min_fill_hypergraph rng
             (S.hypergraph_of p)));
    register ~name:"fhw-bb" ~kind:S.Fhw
      ~doc:"branch and bound for exact fractional hypertree width (LP covers)"
      (fun ?seed b p ->
        Bb_fhw.to_engine_result (Bb_fhw.solve ~within:b ?seed (S.hypergraph_of p)));
    register ~name:"fhw-min-fill" ~kind:S.Fhw
      ~doc:"min-fill ordering with exact LP covers (upper bound only)"
      (heuristic ~default_seed:0x3f5 ~width:fhw_width_ceil (fun rng p ->
           Hd_core.Ordering_heuristics.min_fill_hypergraph rng
             (S.hypergraph_of p)));
    register ~name:"hw-det-k" ~kind:S.Hw
      ~doc:"det-k-decomp: exact hypertree width (Gottlob & Samer)" det_k
  end
