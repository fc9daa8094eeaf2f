(** Fast evaluation of elimination orderings.

    These are the evaluation functions of the genetic algorithms:
    Figure 6.2 (width of the tree decomposition bucket elimination would
    build — the individual's fitness in GA-tw) and Figure 7.1 (width of
    the generalized hypertree decomposition after greedy set covering —
    the fitness in GA-ghw).  Both run the vertex-elimination recurrence
    on adjacency lists with an early exit once the width reached cannot
    be exceeded by the remaining steps, and reuse per-workspace buffers
    so that millions of evaluations allocate almost nothing. *)

type t

(** Tables keyed by bag content: {!Hd_graph.Bitset.fnv_hash} of the
    members, {!Hd_graph.Bitset.equal} on collision.  The one bag-keyed
    table of the system, shared by every cover memo. *)
module Bag_tbl : Hashtbl.S with type key = Hd_graph.Bitset.t

(** [of_graph g] is a reusable workspace for evaluating orderings of
    [g]. *)
val of_graph : Hd_graph.Graph.t -> t

(** [of_hypergraph h] is a workspace over [h]'s primal graph that also
    knows [h]'s hyperedges, enabling {!ghw_width}. *)
val of_hypergraph : Hd_hypergraph.Hypergraph.t -> t

(** [tw_width t sigma] is the width of the tree decomposition derived
    from [sigma] — [Tree_decomposition.(width (of_ordering g sigma))],
    computed without building the decomposition. *)
val tw_width : t -> Ordering.t -> int

(** [ghw_width ?rng t sigma] is the width of the generalized hypertree
    decomposition derived from [sigma] with greedy set covering of every
    bag (ties broken via [rng]).  Requires a workspace built by
    {!of_hypergraph}.

    Cover sizes are memoised per workspace, keyed by a canonical FNV
    hash of the bag contents ({!Hd_graph.Bitset.fnv_hash}): bags recur
    massively across the orderings a GA population or a best_of sweep
    evaluates, so most bags after the first few orderings are table
    hits (counters [setcover.memo_hits]/[setcover.memo_misses]).  A
    consequence of memoisation is that a recurring bag keeps the cover
    size of its first evaluation — [rng] tie-breaking is frozen per
    bag for the workspace's lifetime (see docs/PERFORMANCE.md). *)
val ghw_width : ?rng:Random.State.t -> t -> Ordering.t -> int

(** [ghw_width_exact t sigma] covers every bag exactly, so the result
    is the width of [sigma] in the sense of Definition 17 — the
    objective BB-ghw and A*-ghw optimise.  Covers are memoised in the
    workspace's own exact-cover table (same keying as {!ghw_width},
    separate table — greedy and exact sizes never mix). *)
val ghw_width_exact : t -> Ordering.t -> int

(** [reset_memo t] empties the workspace's set-cover memo tables.
    Useful when one long-lived workspace evaluates orderings of
    unrelated runs and table growth matters; hits/misses counters are
    unaffected. *)
val reset_memo : t -> unit

(** [fhw_width_q t sigma] is the width of [sigma] under fractional edge
    covers: the largest fractional cover number rho* over the bags of
    the ordering's tree decomposition — an exact rational, an
    upper-bound witness for the fractional hypertree width, with
    [fhw_width_q <= ghw_width_exact] pointwise.  rho* values are
    memoised per workspace in a table separate from the integral
    covers (counters [lp.memo_hits]/[lp.memo_misses]); integral and
    fractional costs never share entries. *)
val fhw_width_q : t -> Ordering.t -> Hd_lp.Rat.t

(** [rho_memoized table h bag] is rho* of [bag] over [h]'s hyperedges,
    looked up in (or, copying [bag], added to) [table] — the memo behind
    {!fhw_width_q}, exposed for searches that price bags themselves.
    Counts [lp.memo_hits]/[lp.memo_misses]. *)
val rho_memoized :
  Hd_lp.Rat.t Bag_tbl.t -> Hd_hypergraph.Hypergraph.t -> Hd_graph.Bitset.t -> Hd_lp.Rat.t

(** [weighted_width t ~domain_sizes sigma] is the triangulation weight
    of Section 4.5 (Larranaga et al.):
    [log2 (sum over bags of the product of the bag variables' domain
    sizes)] — the total table size of the junction tree the ordering
    induces, the fitness the Bayesian-network GA minimises. *)
val weighted_width : t -> domain_sizes:int array -> Ordering.t -> float
