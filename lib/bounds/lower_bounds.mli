(** Lower-bound heuristics for treewidth and generalized hypertree
    width.

    Treewidth bounds: all three heuristics exploit that the treewidth of
    a graph is at least the treewidth of any of its minors.

    - {!degeneracy} (MMD): repeatedly delete a minimum-degree vertex;
      the maximum minimum degree seen lower-bounds treewidth.
    - {!minor_min_width} (Figure 4.7, MMD+(least-c)): contract a
      minimum-degree vertex into its least-degree neighbour instead of
      deleting it.
    - {!minor_gamma_r} (Figure 4.8): same contraction process driven by
      the Ramachandramurthi gamma parameter — the degree of the first
      vertex, in ascending degree order, not adjacent to all its
      predecessors.

    GHW bound: {!ghw}, tw-ksc-width (Figure 8.1), combines a treewidth bound
    with the k-set-cover bound: a clique minor of size [d + 1] forces a
    bag of [d + 1] vertices, which no GHD can cover with fewer than
    [ceil((d + 1) / k)] hyperedges of size at most [k].

    All of them run one contraction kernel over a
    {!Hd_graph.Contract_graph}.  The [_of_elim] variants take the
    caller's workspace and reload it from the elimination graph on each
    call, so a search pays no allocation per state. *)

(** Without [?rng], each call breaks its ties with a fresh copy of one
    fixed random state, so its bound depends on the input alone: the
    ordering searches call the [_of_elim] variants this way and
    memoise the bound by live set ([Bag_cost.S.minor_lb]).
    With [?rng], the draws advance the caller's state. *)

(** [degeneracy g] is the MMD bound on [tw(g)]. *)
val degeneracy : Hd_graph.Graph.t -> int

(** [minor_min_width ?rng g] is the MMD+ bound; ties are broken at
    random. *)
val minor_min_width : ?rng:Random.State.t -> Hd_graph.Graph.t -> int

(** [minor_gamma_r ?rng g] is the minor-gamma_R bound. *)
val minor_gamma_r : ?rng:Random.State.t -> Hd_graph.Graph.t -> int

(** [treewidth ?rng ?trials g] is the best of {!minor_min_width} and
    {!minor_gamma_r} over [trials] randomised runs each (default 3) —
    the combined bound A*-tw uses. *)
val treewidth : ?rng:Random.State.t -> ?trials:int -> Hd_graph.Graph.t -> int

(** [treewidth_of_elim ?rng ?trials ~workspace eg] applies {!treewidth}
    to the live part of an elimination graph — the [h]-value of a search
    state — loading it into [workspace] (of capacity
    [Elim_graph.capacity eg]) for each run.  The bound depends only on
    the live graph, never on the workspace's earlier contents. *)
val treewidth_of_elim :
  ?rng:Random.State.t ->
  ?trials:int ->
  workspace:Hd_graph.Contract_graph.t ->
  Hd_graph.Elim_graph.t ->
  int

(** [ghw ?rng ?trials h] is the tw-ksc-width GHW lower bound of
    Figure 8.1 on [h]'s primal graph: with [k] the largest hyperedge
    size, the maximum over the contraction sequence of
    [ceil((d + 1) / k)]. *)
val ghw : ?rng:Random.State.t -> ?trials:int -> Hd_hypergraph.Hypergraph.t -> int

(** [ghw_of_elim ?rng ?trials ~workspace ~max_edge_size eg] is the GHW
    bound for the remaining hypergraph during search, computed on the
    live primal minor [eg] loaded into [workspace]. *)
val ghw_of_elim :
  ?rng:Random.State.t ->
  ?trials:int ->
  workspace:Hd_graph.Contract_graph.t ->
  max_edge_size:int ->
  Hd_graph.Elim_graph.t ->
  int
