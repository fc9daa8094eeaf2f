(** Registration of the exact searches and ordering heuristics in the
    engine's solver table.

    [ensure ()] registers (idempotently): [astar-tw], [astar-tw-dedup],
    [bb-tw], [bb-tw-nopr2], [bb-tw-noreduce], [preprocess-tw],
    [min-fill], [min-degree], [mcs] (treewidth); [astar-ghw],
    [astar-ghw-dedup], [bb-ghw], [bb-ghw-greedy], [min-fill-ghw]
    (generalized hypertree width); [fhw-bb], [fhw-min-fill] (fractional
    hypertree width, as ceilings); [hw-det-k] (hypertree width).  The
    searches are instances of {!Ordering_search}.  The GA
    family lives in [Hd_ga.Solvers].  Call it before resolving names
    via {!Hd_engine.Solver.find} or {!Hd_engine.Engine.run_by_name}. *)

val ensure : unit -> unit
