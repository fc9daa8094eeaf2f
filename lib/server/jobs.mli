(** The hd_server job runner: many concurrent solves time-sliced over
    a {!Hd_engine.Scheduler} the runner owns.

    Each submitted instance becomes a job wrapping an [Engine.run]
    call in a resumable {!Hd_engine.Step.t}, submitted to the
    scheduler as a resumable turn ({!Hd_engine.Scheduler.resume}).
    Each turn runs {e one} slice of one job — park on
    [Budget.Slice_expired], re-enqueue at the back of the scheduler's
    FIFO, move on — so two in-flight jobs both make progress even on a
    single worker, and a newly submitted job never waits behind an
    unbounded solve.  Parked time is credited back to the job's
    budget, so a ["time_limit"] bounds compute time, not queue time.
    Job budgets carry no scheduler ({!Hd_engine.Budget.scheduler}), so
    a job's blocks and [-par] solvers stay on the domain running its
    slice.  A bulk query evaluation hands the runner's instance to
    [Yannakakis.run ?par] (see {!scheduler}), so it shares the jobs'
    domains without oversubscribing the machine.

    Submissions consult the {!Cache} first (unless [use_cache] is
    false): a hit births the job already [done] with the cached result
    — its ordering mapped into the submitting instance's vertex ids —
    and a finished exact solve is stored back, with its ordering in
    canonical ids.

    Cancellation is cooperative: {!cancel} trips the job's budget, the
    in-flight or next slice observes it and returns fast with the
    bounds found so far.  Parked continuations are never dropped — a
    cancelled job is always driven to completion, so no fiber leaks.

    A job is retired — dropped from the runner — once a caller has been
    handed its terminal snapshot (by {!submit}, {!poll}, {!wait} or
    {!cancel}); a cache-served submit is never stored.  Asking about a
    retired id is an error naming it, so the runner's state stays
    bounded by the jobs still in flight or unread.

    Every slice emits a ["server.slice"] {!Hd_obs.Obs.Tap} event and
    appends it to the job's pending-event list (capped; oldest dropped)
    drained by {!poll}.  Counters: [server.jobs_submitted],
    [server.jobs_completed], [server.jobs_cancelled],
    [server.jobs_failed], [server.slices], [server.parks]. *)

type t

type snapshot = {
  id : int;
  label : string option;
  state : string;
      (** ["queued"], ["running"], ["cancelling"], ["done"],
          ["cancelled"], or ["failed"] *)
  cached : bool;  (** served from the decomposition cache *)
  slices : int;
  elapsed : float;  (** compute seconds consumed so far *)
  lb : int;
  ub : int;  (** best bounds so far; [max_int] while unknown *)
  result : Hd_engine.Solver.result option;
  error : string option;
  events : Hd_obs.Obs.Json.t list;
      (** pending slice events, oldest first; reading a snapshot drains
          them *)
}

val create : ?workers:int -> ?slice:float -> cache:Cache.t -> unit -> t
(** [create ~workers ~slice ~cache ()] starts a fresh
    [workers]-domain (default 2) work-stealing scheduler; each job
    turn runs [slice] (default 0.05) seconds of one job.  A zero slice
    yields on every budget poll — maximal interleaving, used by the
    deterministic scheduler tests.
    @raise Invalid_argument when [workers < 1] or [slice] is negative
    or not finite. *)

val scheduler : t -> Hd_engine.Scheduler.t
(** The underlying scheduler, so request handlers (bulk query
    evaluation) can run their own parallel work on the same domains. *)

val submit :
  t ->
  solver:Hd_engine.Solver.t ->
  spec:Hd_engine.Budget.spec ->
  ?seed:int ->
  ?label:string ->
  ?use_cache:bool ->
  signature:Signature.t ->
  Hd_engine.Solver.problem ->
  snapshot
(** [submit t ~solver ~spec ~signature problem] enqueues a solve and
    returns its initial snapshot — already terminal ([state = "done"],
    [cached = true]) on a cache hit.
    @raise Invalid_argument after {!shutdown}. *)

val is_terminal : snapshot -> bool
(** [is_terminal s] holds for the states ["done"], ["cancelled"] and
    ["failed"]: the job will not change again, and handing [s] out
    retired it. *)

val poll : t -> int -> (snapshot, string) result
(** [poll t id] is the job's current snapshot, draining its pending
    events; [Error "job N retired"] once its terminal snapshot has
    been returned, [Error "unknown job N"] for an id never issued. *)

val cancel : t -> int -> (snapshot, string) result
(** [cancel t id] requests cooperative cancellation (no-op on terminal
    jobs) and returns the post-request snapshot; errors as {!poll}. *)

val wait : t -> int -> timeout:float -> (snapshot, string) result
(** [wait t id ~timeout] blocks — polling, not subscribing — until the
    job is terminal or [timeout] seconds elapse, and returns the last
    snapshot seen; errors as {!poll}. *)

val resolve_ordering :
  t ->
  solver:Hd_engine.Solver.t ->
  spec:Hd_engine.Budget.spec ->
  ?seed:int ->
  ?label:string ->
  ?use_cache:bool ->
  timeout:float ->
  signature:Signature.t ->
  Hd_engine.Solver.problem ->
  snapshot * int array option
(** [resolve_ordering t ~solver ~spec ~timeout ~signature problem]
    submits, waits (up to [timeout] seconds) for the terminal
    snapshot, and returns it together with the witness ordering in the
    submitting instance's vertex ids when the solve produced one.  The
    server's bulk op calls this once per cyclic query: the first
    member of an isomorphism class solves and populates the
    {!Cache}; every later member is answered from it instantly
    ([cached = true], zero slices). *)

val stats : t -> Hd_obs.Obs.Json.t
(** Scheduler-level stats object for the server's [stats] response:
    live jobs by state, plus [submitted] and [retired] counts. *)

val shutdown : t -> unit
(** [shutdown t] cancels every live job and shuts the scheduler down;
    its drain resumes each parked job until its continuation completes,
    so no fiber leaks.  Idempotent. *)
