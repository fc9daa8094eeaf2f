(** Registry entries for the parallel solver variants.

    {!ensure} registers [astar-tw-par] and [astar-ghw-par] — the
    {!Hdastar} hash-distributed searches running on
    {!Scheduler.shared} — and [saiga-ghw-par] — {!Saiga_par} with
    [Scheduler.default_workers () + 1] islands and the [saiga-ghw]
    registry settings — into the {!Hd_engine.Solver} registry, so
    portfolios, the bench harness, the server and the CLI can name
    them like any sequential solver.  Idempotent. *)

val ensure : unit -> unit
