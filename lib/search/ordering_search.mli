(** The ordering search: one branch and bound and one A* over
    elimination orderings, for any {!Bag_cost.S}.

    A state is a partial elimination ordering.  Its [g] is the largest
    bag cost on the path, its [h] the cost's minor lower bound on the
    live graph, and [f = max (g, h, parent.f)].  The cost of all live
    vertices as one bag is a completion: it is offered as an upper
    bound (pruning rule PR1), and a state whose completion fits in [g]
    is a goal.  Where the cost's cheap floor ({!Bag_cost.S.live_lb})
    already reaches the upper bound, it stands in for the completion.  Simplicial reduction forces single-child states;
    almost-simplicial reduction and the adjacent case of PR2 apply to
    size-only costs only ({!Bag_cost.S.size_only}).

    Bounds go through the shared int {!Hd_core.Incumbent}, so racing
    solvers see each other's improvements: costs are published as
    their ceiling, and each search also keeps its exact best.  The
    entry points [Bb_tw], [Bb_ghw], [Bb_fhw], [Astar_tw], [Astar_ghw]
    and [Hd_parallel.Hdastar] are instances. *)

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

(** [int_result r] is [r] as the engine's result type. *)
val int_result : int result -> Search_types.result

module Make (C : Bag_cost.S) : sig
  (** [bb ~seed input] is depth-first branch and bound (Sections 4.4
      and 8): children in order of increasing degree, an anytime upper
      bound, and a proof of optimality when the tree is exhausted with
      an exact cost.  [use_pr2] and [use_reductions] (both on by
      default) exist for the pruning ablation.

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
      exhausted budget it is the reported one.  [dedup] merges states
      that eliminated the same vertex set (off by default). *)
  val astar :
    ?within:Hd_engine.Budget.t ->
    ?dedup:bool ->
    seed:int ->
    C.input ->
    C.t result

  (** {2 Building blocks of a distributed A*} *)

  (** One searcher's state: its elimination graph, cost oracle, budget
      ticker and view of the shared incumbent. *)
  type searcher

  (** [searcher p ~ticker ~inc ~rng ~ub:(sigma, cost) ~lb] starts at
      the root with the known upper bound [cost], witnessed by
      [sigma], and lower bound [lb]. *)
  val searcher :
    C.problem ->
    ticker:Hd_engine.Budget.ticker ->
    inc:Hd_core.Incumbent.t ->
    rng:Random.State.t ->
    ub:int array * C.t ->
    lb:C.t ->
    searcher

  (** [below s c]: a state of cost [c] can still improve on the upper
      bound. *)
  val below : searcher -> C.t -> bool

  type node = {
    rpath : int list;  (** eliminated vertices, most recent first *)
    g : C.t;
    f : C.t;
    depth : int;
    reduced : bool;  (** reached by a reduction rule *)
  }

  val root : C.t -> node
  (** The empty ordering with f-value [lb]. *)

  val compare_nodes : node -> node -> int
  (** Smallest [f] first, deeper first among equal [f]. *)

  (** [expand s node ~push] expands [node], which the caller popped
      with [below s node.f]: it ticks the budget, offers the node's
      completion and passes every child that can still improve on the
      bound to [push].  It returns [true] when [node] is a goal (its
      completion fits in [g], and was offered) and has no children. *)
  val expand : searcher -> node -> push:(node -> unit) -> bool
end
