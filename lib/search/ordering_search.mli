(** The ordering search: one branch and bound and one A* over
    elimination orderings, for any {!Bag_cost.S}.

    A state is a partial elimination ordering.  Its [g] is the largest
    bag cost on the path, its [h] the cost's minor lower bound on the
    live graph, and [f = max (g, h, parent.f)].  BB prices [h] before
    it descends into a child; A* prices it when the state reaches the
    top of its queue, since most states it generates are never popped.
    The cost of all live vertices as one bag is a completion: it is offered as an upper
    bound (pruning rule PR1), and a state whose completion fits in [g]
    is a goal.  Where the cost's cheap floor ({!Bag_cost.S.live_lb})
    already reaches the upper bound, it stands in for the completion.  Simplicial reduction forces single-child states;
    almost-simplicial reduction and the adjacent case of PR2 apply to
    size-only costs only ({!Bag_cost.S.size_only}).

    Bounds go through the shared int {!Hd_core.Incumbent}, so racing
    solvers see each other's improvements: costs are published as
    their ceiling, and each search also keeps its exact best.  The
    paper's exact methods are the instances at the end of this module;
    [Hd_parallel.Hdastar] distributes the A* over the same building
    blocks, on one worker as the deduplicating A*; [Solvers] wraps
    them all as named solver entries. *)

(** How a search ended, in the cost's own type. *)
type 'c outcome =
  | Exact of 'c  (** the optimum was proved *)
  | Bounds of { lb : 'c; ub : 'c }
      (** the budget expired; the optimum lies in [lb, ub] *)

type 'c result = {
  outcome : 'c outcome;
  visited : int;  (** states expanded *)
  generated : int;  (** states evaluated *)
  elapsed : float;  (** wall-clock seconds *)
  ordering : int array option;  (** an ordering realising the upper bound *)
}

(** Raised by [Make.pop_live] when the budget runs out. *)
exception Out_of_budget

module Make (C : Bag_cost.S) : sig
  (** [bb ~seed input] is depth-first branch and bound (Sections 4.4
      and 8): children in order of increasing degree, an anytime upper
      bound, and a proof of optimality when the tree is exhausted with
      an exact cost.  [use_pr2] and [use_reductions] (both on by
      default) exist for the pruning ablation.  It runs in the span
      [bb_<name>.solve], with [name] the cost's {!Bag_cost.S.name}.

      Every search runs under one {!Hd_engine.Budget.t}, [within]
      (default: a fresh unlimited budget).  It carries the deadline,
      the state cap, cancellation and the incumbent the search shares
      bounds through; a budget without one gets a private incumbent.
      The search stops once the budget runs out, which includes its
      incumbent closing or being cancelled. *)
  val bb :
    ?within:Hd_engine.Budget.t ->
    ?use_pr2:bool ->
    ?use_reductions:bool ->
    seed:int ->
    C.input ->
    C.t result

  (** [astar ~seed input] is best-first search (Chapters 5 and 9).  The
      frontier minimum f is published as a lower bound, and on an
      exhausted budget it is the reported one.  States that eliminated
      the same vertex set are not merged: the deduplicating A* is
      [Hd_parallel.Hdastar] on one worker.  It runs in the span
      [astar_<name>.solve]. *)
  val astar : ?within:Hd_engine.Budget.t -> seed:int -> C.input -> C.t result

  (** {2 Building blocks of a distributed A*} *)

  (** Where a search starts once the prologue has run. *)
  type start = {
    problem : C.problem;
    ticker : Hd_engine.Budget.ticker;  (** counts the result's states *)
    inc : Hd_core.Incumbent.t;
        (** the budget's incumbent, or a private one *)
    rng : Random.State.t;  (** seeded from [seed], past the initial bounds *)
    ub : int array * C.t;  (** the initial upper bound and its witness *)
    lb : C.t;  (** the initial lower bound, raised to the incumbent's *)
  }

  (** [run ?within ~seed input body] is the prologue [bb] and [astar]
      enter through.  It prepares [input], settles a trivial problem,
      publishes the initial bounds on the incumbent and settles a
      problem they close.  Otherwise [body] searches from the
      {!start} and returns its outcome and witness ordering.  The
      result counts the states of [start.ticker] and the seconds since
      it was made. *)
  val run :
    ?within:Hd_engine.Budget.t ->
    seed:int ->
    C.input ->
    (start -> C.t outcome * int array) ->
    C.t result

  (** One searcher's state: its elimination graph, cost oracle, budget
      ticker and view of the shared incumbent. *)
  type searcher

  (** [searcher st] starts at the root with [st]'s bounds, ticker and
      random state. *)
  val searcher : start -> searcher

  (** [below s c]: a state of cost [c] can still improve on the upper
      bound. *)
  val below : searcher -> C.t -> bool

  (** [raise_lb s c] publishes [c] as a lower bound if it is higher:
      sound only for the minimum f of the whole frontier. *)
  val raise_lb : searcher -> C.t -> unit

  type node = {
    rpath : int list;  (** eliminated vertices, most recent first *)
    g : C.t;
    f : C.t;
    depth : int;
    reduced : bool;  (** reached by a reduction rule *)
    priced : bool;  (** [f] includes the state's minor bound *)
  }

  val root : C.t -> node
  (** The empty ordering with f-value [lb], priced. *)

  val compare_nodes : node -> node -> int
  (** Smallest [f] first, deeper first among equal [f]. *)

  (** [pop_live s queue] pops [queue] up to its first node with
      [below s node.f] and returns it priced.  An unpriced node on top
      gets its minor bound; if that raises its [f], it goes back into
      the queue.  So the node returned has the smallest priced [f] of
      the queue, a lower bound for {!raise_lb}.  Nodes that cannot
      improve on the bound are dropped (search.stale_pops).  The
      budget is polled before every pop: a stop raises
      {!Out_of_budget}, and [None] means the queue is empty. *)
  val pop_live : searcher -> node Pq.t -> node option

  (** [expand s node ~push] expands [node], which the caller popped
      with {!pop_live}: it ticks the budget, offers the node's
      completion and passes to [push], unpriced, every child whose bag
      cost can still improve on the bound.  It returns [true] when
      [node] is a goal (its completion fits in [g], and was offered)
      and has no children. *)
  val expand : searcher -> node -> push:(node -> unit) -> bool
end

(** {1 The paper's exact methods}

    Each is the core over one {!Bag_cost}.  The registry entries in
    [Solvers] fix their default seeds and ablation flags. *)

(** Treewidth.  [Tw.astar] is A*-tw, the best-first exact algorithm of
    Chapter 5: [g] is the width of the partial ordering, [h] a
    minor-based lower bound on the treewidth of the remaining graph.
    Simplicial and strongly almost simplicial reductions force
    single-child states, pruning rule PR2 removes swap-equivalent
    siblings, and states whose [f] reaches the min-fill upper bound are
    discarded.  On an exhausted budget the largest [f] visited is a
    treewidth lower bound (Section 5.3).  [Tw.bb] is BB-tw (Section
    4.4): the same ingredients explored depth-first with an anytime
    upper bound, as in QuickBB.  The completion of a state is its [g]
    or the live vertex count minus one, whichever is larger. *)
module Tw : module type of Make (Bag_cost.Tw)

(** Generalized hypertree width (Chapters 8 and 9).  Chapter 3
    licenses searching elimination orderings: some ordering, with
    every bag's set cover solved exactly, realises ghw (Theorem 3).  A
    state's [g] is the largest exact cover of a bag created so far, its
    [h] the tw-ksc-width lower bound (Section 8.1) of the remaining
    minor.  Simplicial reduction (Section 8.2), the non-adjacent case
    of PR2 and the PR1 completion bound, which covers all remaining
    vertices at once, shrink the tree (Section 8.3).  [Ghw.bb] is
    BB-ghw.  [Ghw.astar] is A*-ghw, whose frontier f-value is a valid
    ghw lower bound when the budget runs out: the anytime behaviour
    Table 9.1 reports. *)
module Ghw : module type of Make (Bag_cost.Ghw)

(** {!Ghw} with greedy bag covers: upper bounds only, the set-cover
    ablation.  Its spans are {!Ghw}'s. *)
module Ghw_greedy : module type of Make (Bag_cost.Ghw_greedy)

(** Exact fractional hypertree width.  The BB-ghw tree with every
    integral cover replaced by the exact rational LP optimum rho*
    ({!Hd_setcover.Fractional}): the minimum over orderings of the
    largest bag rho* is fhw, because rho* is monotone under bag
    inclusion.  Every pruning decision compares exact {!Hd_lp.Rat}
    values, and the shared int incumbent receives their ceilings.  A
    clique minor of [c] vertices forces a bag whose fractional cover
    weighs at least [c/k] when hyperedges have at most [k] vertices.
    [Fhw.bb]: [Exact q] is the fhw; on an exhausted budget
    [Bounds { lb; ub }] brackets it, [ub] witnessed by the result's
    ordering. *)
module Fhw : module type of Make (Bag_cost.Fhw)
