(** The one evaluator of elimination orderings.

    Every width an ordering induces is the largest (or, for the
    weighted objective, the summed) price of the bags {v} u N(v) met
    while eliminating [sigma.(n-1)], then [sigma.(n-2)], and so on:
    Figure 6.2's GA-tw fitness prices a bag by its size, Figure 7.1's
    GA-ghw fitness by a greedy set cover, and the exact searches by an
    exact or fractional cover.  One loop runs all of them on bitset
    rows with full fill (eliminating v makes {v} u N(v) a clique), so
    the rows after k eliminations depend only on which k vertices are
    gone.  A workspace therefore keeps checkpoints at 1, 2, 4, ...
    eliminations of the previous ordering and resumes each call from
    the deepest one inside the suffix it shares with that ordering
    (counters [eval.suffix_reevals] / [eval.full_reevals]).  A
    checkpoint belongs to the objective that recorded it: a call with
    another objective starts from the base graph.  Each objective keeps
    its early exit: tw stops once the width reaches the position, the
    cover and fractional objectives once it reaches the position plus
    one, the weighted objective never.  See docs/PERFORMANCE.md. *)

type t

(** Tables keyed by bag content: {!Hd_graph.Bitset.fnv_hash} of the
    members, {!Hd_graph.Bitset.equal} on collision.  The one bag-keyed
    table of the system, shared by every cover memo. *)
module Bag_tbl : Hashtbl.S with type key = Hd_graph.Bitset.t

(** [of_graph g] is a reusable workspace for evaluating orderings of
    [g]. *)
val of_graph : Hd_graph.Graph.t -> t

(** [of_hypergraph ?seed h] is a workspace over [h]'s primal graph
    that also knows [h]'s hyperedges, enabling the cover objectives.
    [seed] fixes the workspace's greedy tie policy for its lifetime:
    without it {!ghw_width} breaks ties with the caller's rng; with it
    every bag's ties use an rng seeded from [seed] and the bag's
    {!Hd_graph.Bitset.fnv_hash}, so a bag's greedy cover size is a pure
    function of the bag (the GA fitness). *)
val of_hypergraph : ?seed:int -> Hd_hypergraph.Hypergraph.t -> t

(** [tw_width t sigma] is the width of the tree decomposition derived
    from [sigma] — [Tree_decomposition.(width (of_ordering g sigma))],
    computed without building the decomposition. *)
val tw_width : t -> Ordering.t -> int

(** [ghw_width ?rng t sigma] is the width of the generalized hypertree
    decomposition derived from [sigma] with greedy set covering of every
    bag.  Requires a workspace built by {!of_hypergraph}.  Ties are
    broken via [rng], unless the workspace was built with a [seed],
    which then decides them and [rng] is ignored.

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

(** [fhw_width_q t sigma] is the width of [sigma] under fractional edge
    covers: the largest fractional cover number rho* over the bags of
    the ordering's tree decomposition — an exact rational, an
    upper-bound witness for the fractional hypertree width, with
    [fhw_width_q <= ghw_width_exact] pointwise.  rho* values are
    memoised per workspace in a table separate from the integral
    covers (counters [lp.memo_hits]/[lp.memo_misses]); integral and
    fractional costs never share entries. *)
val fhw_width_q : t -> Ordering.t -> Hd_lp.Rat.t

(** [exact_memoized table h bag] is the minimum number of [h]'s
    hyperedges covering [bag], looked up in (or, copying [bag], added
    to) [table] — the memo behind {!ghw_width_exact}, exposed for
    searches that price bags themselves.  Counts
    [setcover.memo_hits]/[setcover.memo_misses]. *)
val exact_memoized :
  int Bag_tbl.t -> Hd_hypergraph.Hypergraph.t -> Hd_graph.Bitset.t -> int

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
