(** The work-stealing task scheduler.

    One instance owns a fixed set of worker domains, each draining its
    own {!Deque} (LIFO for the owner, stolen FIFO by idle peers) plus a
    global FIFO injector queue for external submissions and
    fairness-sensitive resubmissions.  It is the tree's only source of
    worker domains, and there is no process-wide instance: whoever
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
    (successful deque steals), [parallel.park_ns] (cumulative
    nanoseconds workers and joiners spent parked).  A ["scheduler"]
    {!Hd_obs.Obs.Tap} stream reports [park]/[resume]/[drop] events;
    see docs/OBSERVABILITY.md. *)

type t

val create : workers:int -> unit -> t
(** [create ~workers ()] spawns [workers] domains (clamped at 0): the
    caller sizes every instance, never the machine's core count.  With
    [workers = 0] no domain is spawned and every submission runs on
    the caller at the next join point. *)

val size : t -> int
(** Number of worker domains (0 in sequential mode). *)

val shutdown : t -> unit
(** Drain outstanding tasks, then join every worker.  Idempotent.
    Tasks injected after shutdown raise [Invalid_argument]. *)

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

