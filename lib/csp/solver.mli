(** Solving CSPs from decompositions (Section 2.4).

    Both solvers transform the CSP into a solution-equivalent acyclic
    instance — a join tree — and run {!Hd_query.Join_tree.solve}, the
    same columnar semijoin kernel that answers conjunctive queries:

    - {!solve_with_td} is steps 4-5 of Join Tree Clustering: place each
      constraint in a bag containing its scope, solve each bag
      subproblem by join + cartesian extension with the domains of
      the bag variables left uncovered (cost O(d^(w+1))).
    - {!solve_with_ghd} computes each node's relation as the
      projection onto chi(p) of a connected join of constraints
      covering chi(p), among them every constraint inside chi(p)
      ({!Hd_query.Join_tree.of_ghd}; this implies completion, Lemma 2).
      The join keeps a cover of chi(p) of at most |lambda(p)|
      constraints, so the relation is a subset of the projection of
      their join (cost O(|I|^(k+1) log |I|) for width k — this is
      where small ghw pays off).

    Variables outside every bag (impossible for decompositions of the
    CSP's own hypergraph) would be left at their first domain value. *)

(** [solve_with_td csp td] returns a solution or [None].
    @raise Invalid_argument when [td] is not a tree decomposition of
    the CSP's constraint hypergraph. *)
val solve_with_td :
  Csp.t -> Hd_core.Tree_decomposition.t -> int array option

(** [solve_with_ghd csp ghd] returns a solution or [None].
    @raise Invalid_argument when [ghd] is not a GHD of the CSP's
    constraint hypergraph. *)
val solve_with_ghd : Csp.t -> Hd_core.Ghd.t -> int array option

(** [solve csp ~strategy ~seed] decomposes the CSP's hypergraph along
    a min-fill ordering (ties broken by [seed]) and solves.  [`Td]
    solves via a tree decomposition, [`Ghd] via a generalized
    hypertree decomposition.  A caller that wants a better ordering
    runs an engine solver itself and hands the decomposition to
    {!solve_with_td} or {!solve_with_ghd}. *)
val solve :
  Csp.t ->
  strategy:[ `Td | `Ghd ] ->
  seed:int ->
  int array option

(** [solve_if_acyclic csp] detects alpha-acyclicity by GYO reduction
    and, when the CSP is acyclic, solves it directly on the join tree
    of its constraint relations — the fast path of Section 2.2.3,
    with no decomposition step at all.  [None] when the CSP is cyclic;
    [Some None] when acyclic but unsatisfiable. *)
val solve_if_acyclic : Csp.t -> int array option option

(** [count_with_td csp td] counts the complete consistent assignments
    of [csp] by sum-product message passing over the join tree derived
    from [td] — model counting in time exponential only in the width.
    @raise Invalid_argument when [td] is not a tree decomposition of
    the CSP's constraint hypergraph. *)
val count_with_td : Csp.t -> Hd_core.Tree_decomposition.t -> int
