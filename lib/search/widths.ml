module Hypergraph = Hd_hypergraph.Hypergraph
module Rat = Hd_lp.Rat
module Solver = Hd_engine.Solver

type report = {
  n_vertices : int;
  n_hyperedges : int;
  primal_edges : int;
  acyclic : bool;
  tw : Solver.outcome;
  ghw : Solver.outcome;
  fhw : Rat.t;
  fhw_exact : bool;
  hw : int option;
}

let analyze ?(within = Hd_engine.Budget.create ~time_limit:10.0 ()) ?(seed = 1)
    h =
  let primal = Hypergraph.primal h in
  let acyclic = Hd_hypergraph.Acyclicity.is_acyclic h in
  (* the ladder stages run under [sub]-budgets of one common clock:
     each takes an equal share of the time *remaining*, so whatever an
     early stage leaves unspent (an instant tw on a small kernel, say)
     rolls over to the harder ghw/fhw/hw questions instead of being
     discarded *)
  Hd_engine.Budget.start within;
  let stage name stages p =
    let solver = List.find (fun (s : Solver.t) -> s.name = name) Solvers.all in
    Hd_engine.Engine.run ~seed solver (Hd_engine.Budget.sub ~stages within) p
  in
  let tw = (stage "astar-tw" 4 (Solver.Graph primal)).outcome in
  let ghw = (stage "bb-ghw" 3 (Solver.Hypergraph h)).outcome in
  (* fhw natively, not through the int registry: the exact rational is
     the point of the exercise *)
  let fhw, fhw_exact =
    match
      (Ordering_search.Fhw.bb ~within:(Hd_engine.Budget.sub ~stages:2 within)
         ~seed h)
        .outcome
    with
    | Ordering_search.Exact q -> (q, true)
    | Ordering_search.Bounds { ub; _ } -> (ub, false)
  in
  let hw =
    match (stage "hw-det-k" 1 (Solver.Hypergraph h)).outcome with
    | Solver.Exact w -> Some w
    | Solver.Bounds _ -> None
  in
  {
    n_vertices = Hypergraph.n_vertices h;
    n_hyperedges = Hypergraph.n_edges h;
    primal_edges = Hd_graph.Graph.m primal;
    acyclic;
    tw;
    ghw;
    fhw;
    fhw_exact;
    hw;
  }

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%d vertices, %d hyperedges (%d primal edges)@,\
     alpha-acyclic: %b@,\
     treewidth:     %a@,\
     ghw:           %a@,\
     fhw:           %s%a@,\
     hw:            %s@]"
    r.n_vertices r.n_hyperedges r.primal_edges r.acyclic Solver.pp_outcome r.tw
    Solver.pp_outcome r.ghw
    (if r.fhw_exact then "" else "<= ")
    Rat.pp r.fhw
    (match r.hw with Some w -> string_of_int w | None -> "(timeout)")
