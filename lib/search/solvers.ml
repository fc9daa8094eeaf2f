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

(* The search core reports in its cost type; the registry in ints.
   These are the only two bridges between them. *)
let of_int (r : int Ordering_search.result) =
  {
    S.outcome =
      (match r.outcome with
      | Exact w -> S.Exact w
      | Bounds { lb; ub } -> S.Bounds { lb; ub });
    visited = r.visited;
    generated = r.generated;
    elapsed = r.elapsed;
    ordering = r.ordering;
  }

(* fhw reports its ceilings and keeps the witness ordering: the exact
   rational is recovered from it with Eval.fhw_width_q *)
let of_fhw (r : Hd_lp.Rat.t Ordering_search.result) =
  let ceil = Hd_lp.Rat.ceil in
  of_int
    {
      r with
      outcome =
        (match r.outcome with
        | Exact q -> Exact (ceil q)
        | Bounds { lb; ub } ->
            let lb = max 0 (ceil lb) and ub = ceil ub in
            if lb >= ub then Exact ub else Bounds { lb; ub });
    }

(* an ordering search as a registry entry, with its own default seed *)
let search ~kind ~input ~result ~name ~doc ~default_seed solve =
  register ~name ~kind ~doc (fun ?seed b p ->
      result
        (solve ~within:b ~seed:(Option.value seed ~default:default_seed)
           (input p)))

let registered = ref false

let ensure () =
  if not !registered then begin
    registered := true;
    let tw = search ~kind:S.Tw ~input:S.primal_of ~result:of_int in
    let ghw = search ~kind:S.Ghw ~input:S.hypergraph_of ~result:of_int in
    let module O = Ordering_search in
    tw ~name:"astar-tw" ~doc:"best-first exact treewidth (Chapter 5)"
      ~default_seed:0x7ea
      (fun ~within ~seed g -> O.Tw.astar ~within ~seed g);
    tw ~name:"astar-tw-dedup"
      ~doc:"A*-tw merging states with equal eliminated sets"
      ~default_seed:0x7ea
      (fun ~within ~seed g -> O.Tw.astar ~within ~dedup:true ~seed g);
    tw ~name:"bb-tw" ~doc:"depth-first branch and bound (Section 4.4)"
      ~default_seed:0xb0b
      (fun ~within ~seed g -> O.Tw.bb ~within ~seed g);
    tw ~name:"bb-tw-nopr2" ~doc:"BB-tw without pruning rule PR2 (ablation)"
      ~default_seed:0xb0b
      (fun ~within ~seed g -> O.Tw.bb ~within ~use_pr2:false ~seed g);
    tw ~name:"bb-tw-noreduce"
      ~doc:"BB-tw without simplicial reductions (ablation)"
      ~default_seed:0xb0b
      (fun ~within ~seed g -> O.Tw.bb ~within ~use_reductions:false ~seed g);
    register ~name:"preprocess-tw" ~kind:S.Tw
      ~doc:"Bodlaender-style kernelization, then A*-tw on the kernel"
      (fun ?seed b p ->
        of_int
          (Preprocess.treewidth_with_preprocessing ~within:b ?seed
             (S.primal_of p)));
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
      ~default_seed:0xa5a
      (fun ~within ~seed h -> O.Ghw.astar ~within ~seed h);
    ghw ~name:"astar-ghw-dedup"
      ~doc:"A*-ghw merging states with equal eliminated sets"
      ~default_seed:0xa5a
      (fun ~within ~seed h -> O.Ghw.astar ~within ~dedup:true ~seed h);
    ghw ~name:"bb-ghw" ~doc:"branch and bound for ghw (Chapter 8)"
      ~default_seed:0x6b6
      (fun ~within ~seed h -> O.Ghw.bb ~within ~seed h);
    ghw ~name:"bb-ghw-greedy"
      ~doc:"BB-ghw with greedy covers (upper bounds only, ablation)"
      ~default_seed:0x6b6
      (fun ~within ~seed h -> O.Ghw_greedy.bb ~within ~seed h);
    register ~name:"min-fill-ghw" ~kind:S.Ghw
      ~doc:"min-fill ordering with greedy covers (upper bound only)"
      (heuristic ~default_seed:0x3f4 ~width:ghw_width (fun rng p ->
           Hd_core.Ordering_heuristics.min_fill_hypergraph rng
             (S.hypergraph_of p)));
    search ~kind:S.Fhw ~input:S.hypergraph_of ~result:of_fhw ~name:"fhw-bb"
      ~doc:"branch and bound for exact fractional hypertree width (LP covers)"
      ~default_seed:0xfa3
      (fun ~within ~seed h -> O.Fhw.bb ~within ~seed h);
    register ~name:"fhw-min-fill" ~kind:S.Fhw
      ~doc:"min-fill ordering with exact LP covers (upper bound only)"
      (heuristic ~default_seed:0x3f5 ~width:fhw_width_ceil (fun rng p ->
           Hd_core.Ordering_heuristics.min_fill_hypergraph rng
             (S.hypergraph_of p)));
    register ~name:"hw-det-k" ~kind:S.Hw
      ~doc:"det-k-decomp: exact hypertree width (Gottlob & Samer)" det_k
  end
