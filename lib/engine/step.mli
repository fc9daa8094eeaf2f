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
    registry.  Counters: [engine.slices], [engine.yields]. *)

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

(** [unsliced f] runs [f ()] under a handler that resumes
    {!Budget.Slice_expired} immediately instead of parking.  Scheduler
    workers wrap foreign solver tasks in this: a task forked off a
    sliced solve may poll a budget whose slice deadline is armed on
    another domain, and without a handler that perform would be an
    unhandled effect.  Inside [unsliced] the budget's time and state
    limits still apply — only the yield is neutralised. *)
val unsliced : (unit -> 'a) -> 'a
