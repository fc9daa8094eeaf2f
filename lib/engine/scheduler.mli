(** The work-stealing task scheduler.

    One instance owns a fixed number of worker slots, each with its own
    {!Deque} (LIFO for the owner, stolen FIFO by peers), plus a global
    FIFO injector queue for external submissions and
    fairness-sensitive resubmissions.  Worker domains live only while
    there is work: a push that leaves work queued starts a domain on a
    free slot, and a worker that finds nothing to run spins for more
    for about what a restart costs (300 us), then gives its slot back
    and ends, so no domain waits parked between forks (a parked domain
    still costs every minor collection a synchronisation,
    docs/PERFORMANCE.md section 15).  Only a {!run_all} joiner parks,
    while its children run elsewhere.  It is the tree's only source
    of worker domains, and there is no process-wide instance: whoever
    creates one owns it and hands it down explicitly.  A solve finds
    the scheduler it may fork onto in its running budget
    ({!Budget.scheduler}): biconnected block solves ({!Blocks.solve}),
    the HDA* [-par] solvers ([Hd_parallel.Hdastar]) and the SAIGA
    islands ([Hd_ga.Saiga_ghw]) fork through {!Step.run_all}, the one
    fork rule: a budget without a scheduler, or with a slice armed,
    runs them on the calling domain, where they park on the slice like
    any sequential solver.  Partitioned columnar query passes
    ([Hd_query.Colexec]) take an instance as [?par].  The server's time-sliced jobs
    ([Hd_server.Jobs]), portfolio races ([Hd_parallel.Portfolio]) and
    corpus sweeps ([Hd_corpus.Sweep]) fork/join their members on a
    private instance sized to the member count; they are the only
    creators of one under [lib/], and no solver owns a pool.

    Two task shapes cover all of them: fork/join closures
    ({!run_all}, {!map_array}), and a resumable turn ({!resume}) that
    re-enqueues itself at the back of the injector while it returns
    [`Again] — the building block for one-[Step.slice]-per-turn jobs.

    [workers = 0] is the deterministic sequential mode: {!run_all}
    runs its closures inline, in list order, on the calling domain —
    byte-identical to a plain [List.iter].

    Counters: [parallel.tasks] (closures executed), [parallel.steals]
    (successful deque steals), [parallel.worker_starts] (worker
    domains spawned), [parallel.park_ns] (cumulative nanoseconds
    {!run_all} joiners spent parked).  A ["scheduler"]
    {!Hd_obs.Obs.Tap} stream reports [park]/[resume]/[drop] events;
    see docs/OBSERVABILITY.md. *)

type t

val create : workers:int -> unit -> t
(** [create ~workers ()] makes [workers] worker slots (clamped at 0)
    and spawns nothing: the caller sizes every instance, never the
    machine's core count.  At most [workers] worker domains are alive
    at once.  With [workers = 0] every submission runs on the caller
    at the next join point. *)

val size : t -> int
(** Number of worker slots (0 in sequential mode), live or not. *)

val warm : t -> bool
(** Whether a worker domain is running on some slot, busy or lingering
    for more work: a fork made now needs no new domain, unless it
    wants more executors than are running. *)

val shutdown : t -> unit
(** Wait until the queued tasks have run, and join every worker
    domain.  Idempotent.  Tasks injected after shutdown raise
    [Invalid_argument]. *)

val with_scheduler : workers:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception-safe. *)

val resume : t -> (unit -> [ `Again | `Done ]) -> unit
(** [resume t turn] injects a task that runs [turn ()] once per
    scheduling turn and re-injects itself while the result is
    [`Again]: the resumable-[Step]-slice task shape. *)

val run_all : t -> (unit -> unit) list -> unit
(** Structured fork/join.  Runs every closure to completion before
    returning; the calling domain helps (executes pending tasks, its
    own children first) instead of blocking, so nested [run_all] from
    inside a task cannot deadlock.  If closures raised, the first one
    (in list order) is re-raised after all have finished.  With
    [workers = 0] this is exactly [List.iter (fun f -> f ())]. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Fork/join map preserving order ({!run_all} underneath). *)

