(** Registration of the exact searches and ordering heuristics in the
    engine's solver table.

    [ensure ()] registers (idempotently): [astar-tw], [astar-tw-dedup],
    [bb-tw], [bb-tw-nopr2], [bb-tw-noreduce], [preprocess-tw],
    [min-fill], [min-degree], [mcs] (treewidth); [astar-ghw],
    [astar-ghw-dedup], [bb-ghw], [bb-ghw-greedy], [min-fill-ghw]
    (generalized hypertree width); [fhw-bb], [fhw-min-fill] (fractional
    hypertree width, as ceilings); [hw-det-k] (hypertree width).  The
    GA family lives in [Hd_ga.Solvers].  Call it before resolving names
    via {!Hd_engine.Solver.find} or {!Hd_engine.Engine.run_by_name}.

    The exact searches are the {!Ordering_search} instances, registered
    directly.  Without a [seed], each entry uses its own:

    - [astar-tw], [astar-tw-dedup]: [Tw.astar], seed [0x7ea];
    - [bb-tw], [bb-tw-nopr2], [bb-tw-noreduce]: [Tw.bb], seed [0xb0b];
    - [astar-ghw], [astar-ghw-dedup]: [Ghw.astar], seed [0xa5a];
    - [bb-ghw]: [Ghw.bb], and [bb-ghw-greedy]: [Ghw_greedy.bb], seed
      [0x6b6];
    - [fhw-bb]: [Fhw.bb], seed [0xfa3].  The entry reports ceilings of
      the rational bounds, which is sound under the engine's
      max-combining of blocks; the exact rational is recovered from
      the witness ordering with {!Hd_core.Eval.fhw_width_q}. *)

val ensure : unit -> unit

(** [of_int r] is the search core's int result as the registry's: the
    one conversion between the two types. *)
val of_int : int Ordering_search.result -> Hd_engine.Solver.result
