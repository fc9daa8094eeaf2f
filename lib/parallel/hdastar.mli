(** Hash-distributed A* — HDA-star — for exact treewidth and ghw.

    The open list is partitioned across W workers (the domains of the
    budget's {!Hd_engine.Scheduler}, plus the calling one): a state
    belongs to worker [Bitset.fnv_hash (eliminated set) mod W], so
    equal eliminated sets meet on one worker, whose [seen] table merges
    them.  States owned elsewhere travel in batches over SPSC {!Ring}s;
    when a ring is full the sender keeps them, which costs dedup
    precision, never soundness.  Every worker prunes on the shared
    {!Hd_core.Incumbent}'s upper bound, and pops and expands with the
    sequential A*'s own steps
    ({!Hd_search.Ordering_search.Make.pop_live},
    {!Hd_search.Ordering_search.Make.expand}), with its own elimination
    graph, cost oracle and random state.

    Workers register as they come online and states are routed to live
    workers only, so the search progresses from the first worker on.
    It ends when every live worker is idle, no state is in flight and
    nothing changed during the check: the incumbent upper bound is then
    the exact width.  The root counts as in flight until worker 0
    queues it.  The budget's state cap bounds all workers' states
    together; a worker whose expansion the budget cut halts the search
    before it can go idle, so the result degrades to the incumbent
    bounds.

    Without a scheduler in the budget ({!Hd_engine.Budget.scheduler})
    one worker runs on the calling domain, deterministic for a fixed
    seed.  That worker is the A* that merges states with equal
    eliminated sets: it continues the prologue's random state, and as
    its frontier is the whole frontier it raises the lower bound at
    every pop ({!Hd_search.Ordering_search.Make.raise_lb}), which
    closes the search at a goal.  With more workers worker 0 keeps the
    prologue's random state, the others draw from their own seeds, and
    a goal only publishes its bound.

    Counters: [hdastar.messages] (states shipped cross-worker),
    [hdastar.batches] (ring pushes), [hdastar.ring_full] (local
    fallbacks), plus the shared [search.*] family. *)

(** [Tw.solve ~seed g] is the treewidth of [g], entered through the
    sequential A*'s prologue ({!Hd_search.Ordering_search.Make.run});
    visited and generated states are summed over the workers.  It runs
    in the span [hdastar.solve_tw]. *)
module Tw : sig
  val solve :
    ?within:Hd_engine.Budget.t -> seed:int -> Hd_graph.Graph.t ->
    int Hd_search.Ordering_search.result
end

(** [Ghw.solve] is {!Tw.solve} for generalized hypertree width, with a
    cover oracle per worker, in the span [hdastar.solve_ghw]. *)
module Ghw : sig
  val solve :
    ?within:Hd_engine.Budget.t -> seed:int -> Hd_hypergraph.Hypergraph.t ->
    int Hd_search.Ordering_search.result
end
