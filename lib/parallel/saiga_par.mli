(** Domain-parallel SAIGA-ghw: one scheduler executor per island,
    lock-free migration.

    The sequential {!Hd_ga.Saiga_ghw} interleaves its islands
    round-robin and migrates at epoch barriers; here the islands are
    the fork/join tasks of a private {!Hd_engine.Scheduler} with
    [n_islands - 1] workers (the calling domain is the last executor),
    so every island runs its epochs at its own pace.  Migration follows
    a {e directed} ring — island [i] offers its best (individual,
    fitness, parameter vector) to island [i + 1 mod k] through a
    single-producer single-consumer {!Ring} — and is entirely
    non-blocking: a full inbox drops the migrant, an empty inbox skips
    the step, so no island ever waits on a neighbour and the system
    cannot deadlock.  Orientation (Section 7.2.5) uses the migrant's
    parameter vector in place of the synchronous neighbour comparison;
    log-normal self-adaptation (Section 7.2.4) is unchanged.

    The run is {e not} bitwise-deterministic across executions — the
    migrant arrival schedule depends on domain timing — but every
    published width is a sound ghw upper bound, and the budget's
    incumbent, when it has one, collects the islands' improvements for
    portfolio use exactly as in {!Hd_ga.Saiga_ghw.run}.  With
    [n_islands = 1] the scheduler has no workers, so no domain is
    spawned and the run degenerates to a single self-adapting GA on
    the caller. *)

val run :
  ?within:Hd_engine.Budget.t ->
  Hd_ga.Saiga_ghw.config ->
  Hd_hypergraph.Hypergraph.t ->
  Hd_ga.Saiga_ghw.report
(** [run config h] runs [config.n_islands] islands at once and returns
    the merged report: best over islands, summed evaluations, maximal
    epoch count, every island's final parameter vector.  [within] is
    the run's one budget (default: unlimited), shared by all islands —
    each runs its own amortized ticker against the common deadline and
    cancellation flag, and the state cap bounds the islands'
    evaluations together ({!Hd_engine.Budget.pooled}). *)
