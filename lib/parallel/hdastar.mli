(** Hash-distributed A* — HDA-star — for exact treewidth and ghw.

    The open list is partitioned across W workers (the domains of the
    budget's {!Hd_engine.Scheduler}, plus the calling one) by
    owner-computes hashing: a state belongs to worker
    [Bitset.fnv_hash (eliminated set) mod W], so duplicate elimination
    sets always land on the same worker and its local [seen] table
    deduplicates them without any shared structure.
    Generated states owned elsewhere travel in batches over SPSC
    {!Ring}s; a full ring degrades gracefully — the sender keeps the
    state locally, which costs dedup precision, never soundness.
    Bounds flow through one shared {!Hd_core.Incumbent}: every worker
    prunes on the best global upper bound the moment it is published.
    Each worker expands states with the sequential A*'s own step
    ({!Hd_search.Ordering_search.Make.expand}) over a
    {!Hd_search.Bag_cost} instance, with its own elimination graph,
    cost oracle and random state; a goal state only publishes its
    bound, since one worker's frontier minimum is not the global one.

    Workers register themselves as they come online (a busy shared
    pool may start them late) and states are only ever routed to live
    workers, so the search makes progress from the first worker
    onward.  Termination is all-idle detection: when every live worker
    is idle, no message is in flight and nothing changed during the
    check, the frontier is exhausted and the incumbent upper bound is
    the exact width.  The root counts as in flight until its owner
    queues it, so a worker that starts first cannot mistake the empty
    frontier for an exhausted one.  The budget's state cap bounds the
    states all workers generate together.  On budget exhaustion the
    result degrades to the incumbent bounds, exactly like the
    sequential A*: a worker whose expansion the budget cut halts the
    search before it can go idle.

    The scheduler comes from the budget ({!Hd_engine.Budget.scheduler}).
    A budget without one (or one with 0 workers) runs a single worker
    entirely on the calling domain: W = 1, deterministic for a fixed
    seed at any core count.

    Counters: [hdastar.messages] (states shipped cross-worker),
    [hdastar.batches] (ring pushes), [hdastar.ring_full] (local
    fallbacks), plus the shared [search.*] family. *)

val solve_tw :
  ?within:Hd_engine.Budget.t ->
  ?seed:int ->
  Hd_graph.Graph.t ->
  int Hd_search.Ordering_search.result
(** Exact treewidth by distributed best-first search over elimination
    prefixes — the parallel counterpart of
    {!Hd_search.Ordering_search.Tw.astar}, entered through the same
    prologue ({!Hd_search.Ordering_search.Make.run}).  Its visited and
    generated states are summed over the workers.  [seed] defaults to
    [0x7ea]. *)

val solve_ghw :
  ?within:Hd_engine.Budget.t ->
  ?seed:int ->
  Hd_hypergraph.Hypergraph.t ->
  int Hd_search.Ordering_search.result
(** Exact generalized hypertree width, the parallel counterpart of
    {!Hd_search.Ordering_search.Ghw.astar}.  Each worker keeps its own
    cover oracle.  [seed] defaults to [0xa5a]. *)
