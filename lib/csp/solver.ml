module Bitset = Hd_graph.Bitset
module Hypergraph = Hd_hypergraph.Hypergraph
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module Join_tree = Hd_query.Join_tree
module Qrelation = Hd_query.Qrelation
module Obs = Hd_obs.Obs

(* the relation of every hyperedge of the CSP's hypergraph [h]: the
   constraints in order, then the full unary relations of the singleton
   hyperedges that cover constraint-free variables *)
let edge_relations csp h =
  let cs = Array.of_list (Csp.constraints csp) in
  Array.init (Hypergraph.n_edges h) (fun e ->
      if e < Array.length cs then cs.(e)
      else Csp.domain_relation csp (Hypergraph.edge h e).(0))

(* fill variables the join tree left untouched (none when the
   decomposition covers all variables, but stay total anyway) *)
let finalize csp = function
  | None -> None
  | Some assignment ->
      Array.iteri
        (fun v value ->
          if value = min_int then assignment.(v) <- (Csp.domain csp v).(0))
        assignment;
      if Csp.consistent csp assignment then Some assignment else None

let solve_tree csp jt =
  finalize csp (Join_tree.solve jt ~n_vars:(Csp.n_variables csp))

(* steps 4-5 of Join Tree Clustering: place each constraint in one
   covering bag, then solve each bag subproblem -- join the placed
   constraints with the domains of the bag variables they leave out *)
let join_tree_of_td csp td =
  let h = Csp.hypergraph csp in
  if not (Td.valid_for_hypergraph h td) then
    invalid_arg "Solver: not a tree decomposition of the CSP";
  let n_nodes = Td.n_nodes td in
  let placed = Array.make n_nodes [] in
  List.iter
    (fun r ->
      let scope = Qrelation.scope r in
      let rec find p =
        if Array.for_all (Bitset.mem (Td.bag td p)) scope then p
        else find (p + 1)
      in
      let node = find 0 in
      placed.(node) <- r :: placed.(node))
    (Csp.constraints csp);
  let rels =
    Array.init n_nodes (fun p ->
        let bag = Bitset.elements (Td.bag td p) in
        let covered v =
          List.exists (fun r -> Array.exists (( = ) v) (Qrelation.scope r)) placed.(p)
        in
        let missing = List.filter (fun v -> not (covered v)) bag in
        Join_tree.bag
          (placed.(p) @ List.map (Csp.domain_relation csp) missing)
          ~scope:(Array.of_list bag))
  in
  { Join_tree.rels; parent = td.Td.parent }

let solve_with_td csp td =
  Obs.with_span "csp.solve_with_td" @@ fun () ->
  solve_tree csp (join_tree_of_td csp td)

let count_with_td csp td =
  Obs.with_span "csp.count_with_td" @@ fun () ->
  (* every variable occurs in some bag (singleton hyperedges are added
     for unconstrained variables), so bag-variable counting is total *)
  Join_tree.count_solutions (join_tree_of_td csp td)

let solve_with_ghd csp ghd =
  Obs.with_span "csp.solve_with_ghd" @@ fun () ->
  let h = Csp.hypergraph csp in
  if not (Ghd.valid h ghd) then
    invalid_arg "Solver.solve_with_ghd: not a GHD of the CSP";
  solve_tree csp (Join_tree.of_ghd h ghd (edge_relations csp h))

let solve ?solver ?time_limit csp ~strategy ~seed =
  let h = Csp.hypergraph csp in
  let rng = Random.State.make [| seed |] in
  let sigma =
    (* [solver] picks a registered engine solver for the decomposition
       ordering (the caller links and registers the provider library);
       the default stays the dependency-free min-fill heuristic *)
    match solver with
    | None -> Hd_core.Ordering_heuristics.min_fill_hypergraph rng h
    | Some name -> (
        let r =
          Hd_engine.Engine.run_by_name ~seed name
            (Hd_engine.Budget.create ?time_limit ())
            (Hd_engine.Solver.Hypergraph h)
        in
        match r.Hd_engine.Solver.ordering with
        | Some sigma -> sigma
        | None -> Hd_core.Ordering_heuristics.min_fill_hypergraph rng h)
  in
  match strategy with
  | `Td -> solve_with_td csp (Td.of_ordering_hypergraph h sigma)
  | `Ghd ->
      solve_with_ghd csp (Ghd.of_ordering h sigma ~cover:(`Greedy (Some rng)))

let solve_if_acyclic csp =
  let h = Csp.hypergraph csp in
  match Hd_hypergraph.Acyclicity.join_tree h with
  | None -> None
  | Some parent ->
      Some (solve_tree csp { Join_tree.rels = edge_relations csp h; parent })
