(** Registry entries for the parallel solver variants.

    {!ensure} registers [astar-tw-par] and [astar-ghw-par] — the
    {!Hdastar} hash-distributed searches — and [saiga-ghw-par] —
    {!Saiga_par} with the [saiga-ghw] registry settings — into the
    {!Hd_engine.Solver} registry, so portfolios, the bench harness, the
    server and the CLI can name them like any sequential solver.  Each
    sizes itself from the scheduler of the budget it runs under
    ({!Hd_engine.Budget.scheduler}): HDA* runs one worker per executor
    ([Scheduler.size s + 1]), parallel SAIGA one island per executor.
    Without a scheduler both run a single worker or island on the
    calling domain, so their result does not depend on the machine's
    core count.  Idempotent. *)

val ensure : unit -> unit
