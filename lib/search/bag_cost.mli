(** Bag costs: what separates treewidth, ghw and fhw in the ordering
    search.

    Moll–Tazari–Thurley characterise all three widths as the minimum,
    over elimination orderings, of the largest cost of a bag, for a
    cost that is monotone under bag inclusion: the bag size minus one
    (tw), its minimum edge cover (ghw), its fractional edge cover rho*
    (fhw).  {!Ordering_search} runs one branch and bound and one A* over
    any such cost; this module supplies the costs.

    An instance fixes the cost arithmetic, how a cost is published to
    the shared int {!Hd_core.Incumbent}, and the per-run oracle that
    prices the bags of an {!Hd_graph.Elim_graph}. *)

module type S = sig
  val name : string
  (** Names the searches' spans: [bb_<name>.solve] and
      [astar_<name>.solve]. *)

  type t
  (** A bag cost; [compare]/[max]/[zero] order and combine them. *)

  val compare : t -> t -> int
  val max : t -> t -> t
  val zero : t

  val ceil : t -> int
  (** The ceiling published to the shared int incumbent. *)

  val of_int : int -> t
  (** A shared int upper bound read back as a cost. *)

  val integral : bool
  (** [ceil] loses nothing, so shared lower bounds and a closed
      incumbent carry over to costs.  False for fhw, whose shared
      bounds are ceilings of rationals. *)

  val size_only : bool
  (** The cost of a bag depends only on its size, and [ceil c] is the
      vertex degree it allows.  Only then are almost-simplicial
      reduction and the adjacent case of pruning rule PR2 sound. *)

  val exact : bool
  (** The oracle prices every bag optimally, so an exhausted search
      proves its upper bound optimal.  False for greedy covers. *)

  type input
  type problem

  val prepare : input -> problem
  (** Validates the input and drops what cannot change the width.
      @raise Invalid_argument on an input the width is undefined for. *)

  val graph : problem -> Hd_graph.Graph.t
  (** The graph whose elimination orderings are searched. *)

  val trivial : problem -> t option
  (** The width of a problem too small to search, if it is one; its
      witness is the identity ordering. *)

  val initial : problem -> Random.State.t -> int array * t * t
  (** A heuristic ordering, its cost, and a lower bound on the width. *)

  type oracle
  (** Per-search pricing state: caches, scratch space (among it the
      contraction workspace {!minor_lb} reloads on every miss) and the
      search's random state, which only greedy covers draw from.
      Never shared: each searcher, and each HDA* worker, builds its
      own. *)

  val oracle : problem -> Random.State.t -> oracle

  val bag : oracle -> Hd_graph.Elim_graph.t -> int -> t
  (** The cost of the bag that eliminating the given vertex creates. *)

  val live : oracle -> Hd_graph.Elim_graph.t -> t
  (** The cost of all live vertices as one bag: every bag of every
      completion is a subset, so it bounds the best completion. *)

  val live_lb : oracle -> Hd_graph.Elim_graph.t -> t
  (** A cheap lower bound on {!live} that never draws from the
      oracle's random state.  When it already reaches the upper bound,
      the search takes it for the completion and skips [live]. *)

  val minor_lb : oracle -> Hd_graph.Elim_graph.t -> t
  (** A lower bound on the width of the live graph from its minors;
      called only with at least two live vertices.  A pure function of
      the live set: its contraction ties come from a fresh copy of one
      fixed random state ({!Hd_bounds.Lower_bounds}), never from the
      oracle's, and the graph left after eliminating a vertex set is
      the same for every elimination order.  So the oracle memoises it
      by live set, and neither a hit nor a miss moves any other
      draw. *)

  val minor_memo : oracle -> Hd_graph.Bitset.t -> t option
  (** [minor_memo o live] is the {!minor_lb} of the live set [live] if
      [o] has memoised it.  A* looks a popped state's bound up here
      before it moves its elimination graph to the state. *)
end

(** Treewidth: a bag costs its size minus one.  Input: a graph.  Its
    [live] is O(1), so [live_lb] is [zero]. *)
module Tw : S with type t = int and type input = Hd_graph.Graph.t

(** Generalized hypertree width: a bag costs its minimum edge cover,
    memoised per run ({!Hd_core.Eval.exact_memoized}).  Input: a
    hypergraph with every vertex in some hyperedge; subsumed hyperedges
    are dropped first.  [live_lb] is
    [zero]: [live] breaks greedy ties with the random state, so skipping
    it would shift every later draw. *)
module Ghw : S with type t = int and type input = Hd_hypergraph.Hypergraph.t

(** {!Ghw} with greedy covers: faster, but only upper bounds.  Its
    [name] is {!Ghw}'s. *)
module Ghw_greedy :
  S with type t = int and type input = Hd_hypergraph.Hypergraph.t

(** Fractional hypertree width: a bag costs its exact rational rho*
    ({!Hd_core.Eval.rho_memoized}); the lower bound is the fractional
    k-set-cover bound [(tw + 1) / k] of a clique minor.  [live_lb] is
    the weight [|live| / k_live] of the uniform vertex packing, where
    [k_live] is the most live vertices one hyperedge holds. *)
module Fhw :
  S with type t = Hd_lp.Rat.t and type input = Hd_hypergraph.Hypergraph.t
