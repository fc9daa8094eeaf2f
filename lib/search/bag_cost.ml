module Bitset = Hd_graph.Bitset
module Graph = Hd_graph.Graph
module Elim_graph = Hd_graph.Elim_graph
module Contract_graph = Hd_graph.Contract_graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Set_cover = Hd_setcover.Set_cover
module Lower_bounds = Hd_bounds.Lower_bounds
module Eval = Hd_core.Eval
module Heuristics = Hd_core.Ordering_heuristics
module Rat = Hd_lp.Rat

module type S = sig
  val name : string

  type t

  val compare : t -> t -> int
  val max : t -> t -> t
  val zero : t
  val ceil : t -> int
  val of_int : int -> t
  val integral : bool
  val size_only : bool
  val exact : bool

  type input
  type problem

  val prepare : input -> problem
  val graph : problem -> Graph.t
  val trivial : problem -> t option
  val initial : problem -> Random.State.t -> int array * t * t

  type oracle

  val oracle : problem -> Random.State.t -> oracle
  val bag : oracle -> Elim_graph.t -> int -> t
  val live : oracle -> Elim_graph.t -> t
  val live_lb : oracle -> Elim_graph.t -> t
  val minor_lb : oracle -> Elim_graph.t -> t
  val minor_memo : oracle -> Bitset.t -> t option
end

module Int_cost = struct
  type t = int

  let compare = Int.compare
  let max = Int.max
  let zero = 0
  let ceil w = w
  let of_int w = w
  let integral = true
end

(* The minor bounds are pure: without [~rng], each call breaks its
   contraction ties with a fresh copy of one fixed state
   (Lower_bounds).  And the graph left after eliminating a vertex set
   is the same for every elimination order.  So the bound is a
   function of the live set, and a searcher prices each live set once
   (docs/PERFORMANCE.md, "Pure lower bounds").  The live set is the
   elimination graph's own: the key is copied on insert.  A table that
   reaches [minor_memo_cap] entries starts over, which bounds a long
   search's memory and changes no bound.  Each miss runs one
   contraction bound: search.minor_bounds counts them. *)
let minor_memo_cap = 1 lsl 16

let memo_minor minors compute o eg =
  let live = Elim_graph.alive eg in
  match Eval.Bag_tbl.find_opt minors live with
  | Some c -> c
  | None ->
      Hd_obs.Obs.Counter.incr Search_util.c_minor_bounds;
      let c = compute o eg in
      if Eval.Bag_tbl.length minors >= minor_memo_cap then
        Eval.Bag_tbl.reset minors;
      Eval.Bag_tbl.add minors (Bitset.copy live) c;
      c

module Tw = struct
  include Int_cost

  let name = "tw"
  let size_only = true
  let exact = true

  type input = Graph.t
  type problem = Graph.t

  let prepare g = g
  let graph g = g
  let trivial g = if Graph.n g <= 1 then Some (Graph.n g - 1) else None

  let initial g rng =
    let ub_sigma, ub =
      Heuristics.best_of rng g ~trials:3
        ~eval:(Eval.tw_width (Eval.of_graph g))
    in
    (ub_sigma, ub, Lower_bounds.treewidth ~rng g)

  (* [minors] memoises the minor bound by live set; [workspace] is this
     searcher's own contraction graph, reloaded on every miss *)
  type oracle = { workspace : Contract_graph.t; minors : int Eval.Bag_tbl.t }

  let oracle g _ =
    {
      workspace = Contract_graph.create (Graph.n g);
      minors = Eval.Bag_tbl.create 64;
    }

  let bag _ eg v = Elim_graph.degree eg v
  let live _ eg = Elim_graph.n_alive eg - 1
  let live_lb _ _ = 0

  let minor o eg =
    Lower_bounds.treewidth_of_elim ~trials:1 ~workspace:o.workspace eg

  let minor_lb o eg = memo_minor o.minors minor o eg
  let minor_memo o live = Eval.Bag_tbl.find_opt o.minors live
end

(* ghw and fhw search the primal graph of the same reduced hypergraph *)
type hyper = { hg : Hypergraph.t; primal : Graph.t }

let prepare_hyper h =
  if not (Hypergraph.all_vertices_covered h) then
    invalid_arg "Ghw search: every vertex must lie in some hyperedge";
  (* subsumed hyperedges never matter for covers or coverage: searching
     the reduced instance is free speedup (same vertices, same primal,
     same width) *)
  let h = Hypergraph.remove_subsumed h in
  { hg = h; primal = Hypergraph.primal h }

(* the bag {v} u N(v), or the live set, in a reused scratch bitset *)
let bag_set scratch eg v =
  Bitset.blit ~src:(Elim_graph.adjacency eg v) ~dst:scratch;
  Bitset.add scratch v;
  scratch

let live_set scratch eg =
  Bitset.blit ~src:(Elim_graph.alive eg) ~dst:scratch;
  scratch

(* [cache] memoises bag costs by bag content and [minors] the minor
   lower bound by live set; [k] is the largest hyperedge size that bound
   divides by; [workspace] is the searcher's own contraction graph for
   it.  [rng] serves the greedy covers alone. *)
type 'c cover_oracle = {
  h : Hypergraph.t;
  cache : 'c Eval.Bag_tbl.t;
  minors : 'c Eval.Bag_tbl.t;
  rng : Random.State.t;
  scratch : Bitset.t;
  workspace : Contract_graph.t;
  k : int;
}

let cover_oracle p rng ~k =
  let scratch = Bitset.create (max 1 (Hypergraph.n_vertices p.hg)) in
  let workspace = Contract_graph.create (Graph.n p.primal) in
  {
    h = p.hg;
    cache = Eval.Bag_tbl.create 64;
    minors = Eval.Bag_tbl.create 64;
    rng;
    scratch;
    workspace;
    k;
  }

module Ghw = struct
  include Int_cost

  let name = "ghw"
  let size_only = false
  let exact = true

  type input = Hypergraph.t
  type problem = hyper

  let prepare = prepare_hyper
  let graph p = p.primal
  let trivial p = if Hypergraph.n_vertices p.hg = 0 then Some 0 else None

  let initial p rng =
    let eval = Eval.of_hypergraph p.hg in
    let ub_sigma, ub =
      Heuristics.best_of rng p.primal ~trials:3
        ~eval:(Eval.ghw_width ~rng eval)
    in
    (ub_sigma, ub, Lower_bounds.ghw ~rng p.hg)

  (* exact covers of bags, cached by bag content in Eval's cover memo
     (counted as setcover.memo_hits/setcover.memo_misses) *)
  type oracle = int cover_oracle

  let oracle p rng = cover_oracle p rng ~k:(Hypergraph.max_edge_size p.hg)

  let cover o universe = { Set_cover.universe; hypergraph = o.h }
  let bag o eg v = Eval.exact_memoized o.cache o.h (bag_set o.scratch eg v)

  (* a greedy cover of the live set is a valid width for any completion *)
  let live o eg =
    if Elim_graph.n_alive eg = 0 then 0
    else Set_cover.greedy_size ~rng:o.rng (cover o (live_set o.scratch eg))

  (* [live] may draw from [rng]: a floor that skipped it would shift
     every later draw *)
  let live_lb _ _ = 0

  let minor o eg =
    Lower_bounds.ghw_of_elim ~trials:1 ~workspace:o.workspace
      ~max_edge_size:o.k eg

  let minor_lb o eg = memo_minor o.minors minor o eg
  let minor_memo o live = Eval.Bag_tbl.find_opt o.minors live
end

module Ghw_greedy = struct
  include Ghw

  let exact = false
  let bag o eg v =
    Set_cover.greedy_size ~rng:o.rng (cover o (bag_set o.scratch eg v))
end

module Fhw = struct
  let name = "fhw"

  type t = Rat.t

  let compare = Rat.compare
  let max = Rat.max
  let zero = Rat.zero
  let ceil = Rat.ceil
  let of_int = Rat.of_int
  let integral = false
  let size_only = false
  let exact = true

  type input = Hypergraph.t
  type problem = hyper

  let prepare = prepare_hyper
  let graph p = p.primal
  let trivial p =
    if Hypergraph.n_vertices p.hg = 0 then Some Rat.zero else None
  let k p = Int.max 1 (Hypergraph.max_edge_size p.hg)

  (* a clique (minor) of c vertices forces a bag of c vertices in every
     decomposition, and any fractional cover of c vertices by hyperedges
     of size at most k weighs at least c/k — the fractional analogue of
     the k-set-cover bound, without the ceiling *)
  let initial p rng =
    let ub_sigma = Heuristics.min_fill_hypergraph rng p.hg in
    let ub = Eval.fhw_width_q (Eval.of_hypergraph p.hg) ub_sigma in
    let clique = Lower_bounds.treewidth ~rng ~trials:1 p.primal + 1 in
    (ub_sigma, ub, Rat.max Rat.one (Rat.make clique (k p)))

  (* rho* of bags, cached by bag content in Eval's LP memo (counted as
     lp.memo_hits/lp.memo_misses) *)
  type oracle = Rat.t cover_oracle

  let oracle p rng = cover_oracle p rng ~k:(k p)

  let bag o eg v = Eval.rho_memoized o.cache o.h (bag_set o.scratch eg v)

  let live o eg =
    if Elim_graph.n_alive eg = 0 then Rat.zero
    else Eval.rho_memoized o.cache o.h (live_set o.scratch eg)

  (* y_v = 1/k_live on every live vertex, with k_live the most live
     vertices one hyperedge holds, is a feasible vertex packing: its
     weight bounds rho*(live) from below by LP duality, without an LP *)
  let live_lb o eg =
    let live = Elim_graph.alive eg in
    let k_live = ref 1 in
    for e = 0 to Hypergraph.n_edges o.h - 1 do
      k_live :=
        Int.max !k_live (Bitset.inter_cardinal (Hypergraph.edge_bits o.h e) live)
    done;
    Rat.make (Bitset.cardinal live) !k_live

  let minor o eg =
    let tw =
      Lower_bounds.treewidth_of_elim ~trials:1 ~workspace:o.workspace eg
    in
    Rat.make (tw + 1) o.k

  let minor_lb o eg = memo_minor o.minors minor o eg
  let minor_memo o live = Eval.Bag_tbl.find_opt o.minors live
end
