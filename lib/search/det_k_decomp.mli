(** det-k-decomp: hypertree decompositions of width at most k
    (Gottlob--Leone--Scarcello's opt-k-decomp line, in the
    deterministic formulation of Gottlob & Samer).

    A {e hypertree decomposition} is a generalized hypertree
    decomposition that additionally satisfies the descendant condition
    (condition 4 of Definition 5.x in the literature): for every node
    [p], the vertices of [lambda(p)] that occur anywhere in the subtree
    rooted at [p] must already belong to [chi(p)].  That condition is
    what makes "hw(H) <= k" decidable in polynomial time for fixed [k],
    whereas the same question for ghw is NP-complete — the
    computational gap the paper's Section 2.3.2 describes.

    The algorithm searches top-down: pick a separator [S] of at most
    [k] hyperedges covering the connector vertices shared with the
    parent, split the remaining hyperedges into [var(S)]-connected
    components, and recurse, memoising failed (component, connector)
    pairs.

    Widths relate as [ghw(H) <= hw(H) <= tw(H) + 1], both
    property-tested in the suite. *)

(** A hypertree decomposition, as a GHD whose descendant condition
    holds. *)
type t = Hd_core.Ghd.t

(** [Timeout lb] is raised when the budget expires mid-search: the
    question "hw <= k?" is then unanswered (a [None] would wrongly
    claim hw > k).  [lb] is the lower bound proved before the stop:
    for {!hypertree_width}, the k it was deciding, since every smaller
    k was refuted or lies below the ghw bound it starts from; for
    {!decide}, the trivial 1. *)
exception Timeout of int

(** [decide ?within h ~k] finds a hypertree decomposition of width at
    most [k], or [None] when [hw h > k].  [within] bounds the run
    (deadline, state cap, cooperative cancellation); its state unit is
    one expanded (component, connector) subproblem, while memo hits
    and components of at most [k] edges are free.
    @raise Timeout when the budget expires or is cancelled.
    @raise Invalid_argument when some vertex of [h] lies in no
    hyperedge or [k < 1]. *)
val decide :
  ?within:Hd_engine.Budget.t -> Hd_hypergraph.Hypergraph.t -> k:int -> t option

(** [hypertree_width ?upper ?within h] is [hw h] with a witness,
    found by trying k upward from the tw-ksc lower bound; [upper]
    (default: number of hyperedges) caps the search and [within]
    (default: unlimited) bounds the whole run: one ticker and one
    bitset index serve every k.
    @raise Timeout when the budget expires. *)
val hypertree_width :
  ?upper:int ->
  ?within:Hd_engine.Budget.t ->
  Hd_hypergraph.Hypergraph.t ->
  int * t

(** [search ?upper tk h] is {!hypertree_width} on a ticker the caller
    made from its budget, so that [Hd_engine.Budget.generated tk]
    afterwards counts the subproblems the run expanded. *)
val search :
  ?upper:int -> Hd_engine.Budget.ticker -> Hd_hypergraph.Hypergraph.t -> int * t

(** [special_condition_holds h ghd] checks condition 4 alone, the
    special (or descendant) condition: for every node [p],
    [var(lambda p)] intersected with the vertices occurring in [p]'s
    subtree is contained in [chi p].  This is the check [hd_validate]
    runs on [.ghd] witnesses. *)
val special_condition_holds : Hd_hypergraph.Hypergraph.t -> Hd_core.Ghd.t -> bool

(** [valid h hd] checks all four hypertree decomposition conditions. *)
val valid : Hd_hypergraph.Hypergraph.t -> t -> bool
