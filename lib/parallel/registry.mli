(** The one place that fills the engine's solver table.

    [ensure ()] registers, once, the exact searches and ordering
    heuristics of [Hd_search.Solvers.all], the metaheuristics of
    [Hd_ga.Solvers.all], and the parallel variants: [astar-tw-par] and
    [astar-ghw-par], the {!Hdastar} hash-distributed searches, and
    [saiga-ghw-par], {!Saiga_par} with the [saiga-ghw] registry
    settings.  The table lists them grouped by kind (tw, ghw, fhw,
    hw), in that order within each kind — the order
    [hd_decompose --list-solvers] prints and the server's [solvers]
    reply returns.  Every front door — the CLIs, the server,
    portfolios, corpus sweeps, query planning and the bench harness —
    calls it before resolving a name with {!Hd_engine.Solver.find} or
    {!Hd_engine.Engine.run_by_name}, so every one of them sees every
    solver.  Nothing else calls [Hd_engine.Solver.register].

    The parallel variants size themselves from the scheduler of the
    budget they run under ({!Hd_engine.Budget.scheduler}): HDA* runs
    one worker per executor ([Scheduler.size s + 1]), parallel SAIGA
    one island per executor.  Without a scheduler both run a single
    worker or island on the calling domain, so their result does not
    depend on the machine's core count; one HDA* worker is the
    deduplicating A*.  Their default seeds are [astar-tw]'s [0x7ea],
    [astar-ghw]'s [0xa5a] and [saiga-ghw]'s.

    Idempotent and safe to call from racing domains. *)

val ensure : unit -> unit
