(** Resumable solver steps: run any budgeted computation for one
    scheduler slice at a time — run, park, resume — without touching
    solver code.

    A step task wraps a [unit -> 'a] computation that polls a
    {!Budget.t} ticker (every registered solver does).  {!slice} arms
    the budget's slice deadline and runs the computation under an
    effect handler; when a ticker poll crosses the deadline it performs
    [Budget.Slice_expired], the handler captures the continuation and
    {!slice} returns [Yielded].  The next {!slice} call resumes exactly
    where the solve stopped — possibly on a different domain — after
    crediting the parked wall-clock time back to the budget, so a
    sliced solve's deadline measures {e compute} time, not queue time.
    This is what lets hd_server interleave many concurrent jobs on the
    workers of one {!Scheduler} (docs/SERVER.md).

    Constraints: a task is driven by one scheduler at a time (slices
    may hop domains, the continuation is one-shot), and the computation
    must poll its budget from the domain running the slice —
    single-domain solvers, which is every solver in the engine
    registry: the parallel layers fork only through {!run_all}, which
    keeps a sliced solve on its own domain.  Counters:
    [engine.slices], [engine.yields]. *)

type 'a t

type 'a outcome =
  | Done of 'a  (** the computation returned *)
  | Yielded  (** slice expired; call {!slice} again to resume *)

(** [make budget f] wraps [f] (a computation polling [budget]) as an
    unstarted task.  [f] does not run until the first {!slice}. *)
val make : Budget.t -> (unit -> 'a) -> 'a t

(** [slice t ~seconds] runs [t] for at most [seconds] of compute time
    and returns [Done] or [Yielded].  On a finished task it returns
    the cached result; re-raises the computation's exception if it
    failed (on the slice that raised, and on every later call). *)
val slice : 'a t -> seconds:float -> 'a outcome

(** Number of {!slice} calls that actually ran the computation. *)
val slices : 'a t -> int

(** [finished t] holds once the computation returned or raised. *)
val finished : 'a t -> bool

(** [run_to_completion ~seconds t] slices until done — a sequential
    driver for tests and simple callers. *)
val run_to_completion : ?seconds:float -> 'a t -> 'a

(** {2 The fork rule}

    Every layer that fans work out over the budget's scheduler — block
    solves ({!Blocks.solve}), HDA*'s workers and the SAIGA islands —
    goes through {!run_all}, so the rule is written once: tasks leave
    the calling domain only when the budget carries a scheduler
    ({!Budget.scheduler}) and no slice is armed on it.  A sliced solve keeps its work on the slicing
    domain, where the [Slice_expired] handler lives, and parks like any
    sequential solve. *)

(** [run_all b tasks] runs every task to completion.  When the rule
    above lets them fork, they are forked and joined on [b]'s
    scheduler, each under a handler that resumes
    {!Budget.Slice_expired} at once instead of parking (a forked task
    may poll a budget whose slice is armed on another domain; its time
    and state limits still apply).  Otherwise they run inline, in list
    order. *)
val run_all : Budget.t -> (unit -> unit) list -> unit

(** [executors b] is the number of executors {!run_all} would use on
    [b]: the scheduler's size plus the joining caller, or [1] without a
    scheduler or under an armed slice. *)
val executors : Budget.t -> int
