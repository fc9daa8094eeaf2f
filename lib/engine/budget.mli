(** Unified anytime-solver budgets: one monotonic deadline, one state
    cap, one cooperative cancellation token.

    Every solver entry point in the tree (A*/BB searches, det-k-decomp,
    the GA/SA/SAIGA drivers) takes exactly one limit: a [Budget.t],
    passed as [?within].  The budget carries

    - an optional wall-clock limit, measured from the budget's {e
      start} (first use), not its creation — reported [elapsed] times
      therefore cover the run only, never setup work done beforehand;
    - an optional cap on generated states / evaluations;
    - a cancellation flag shared with any number of sub-budgets, and
      optionally an {!Hd_core.Incumbent.t} whose own cancellation and
      closure are honoured too: a solver publishes its bounds there,
      and a target is a lower bound raised on it;
    - optionally the {!Scheduler.t} the run may fork onto.  Block
      solves ({!Blocks.solve}), HDA* and the SAIGA islands fork onto
      it through {!Step.run_all}; without one they run on the calling
      domain, so a budget built without a scheduler gives the same
      result at any core count.  Sub-budgets and {!pooled} views
      inherit it.

    Solvers do not poll the budget directly; they create a {!ticker}
    and call {!out_of_budget} on every step.  The ticker amortizes
    clock reads adaptively: tight search loops widen the polling
    window up to 1024 checks per [Unix] call, while slow tick streams
    (one GA generation per check) shrink it back to one, keeping
    deadline precision at a few milliseconds either way. *)

(** The passive description of a budget — what callers configure at
    orchestration boundaries (portfolio, corpus sweep, query planner,
    server protocol, CLIs).  Solver entry points take a running {!t}
    instead; [of_spec] converts. *)
type spec = {
  time_limit : float option;  (** wall-clock seconds *)
  max_states : int option;  (** cap on generated states *)
}

type t

(** [create ()] makes a fresh, unstarted budget. *)
val create :
  ?time_limit:float ->
  ?max_states:int ->
  ?incumbent:Hd_core.Incumbent.t ->
  ?scheduler:Scheduler.t ->
  unit ->
  t

(** [of_spec spec] is [create] from a {!spec}. *)
val of_spec : ?incumbent:Hd_core.Incumbent.t -> spec -> t

val time_limit : t -> float option
val max_states : t -> int option
val incumbent : t -> Hd_core.Incumbent.t option

(** The scheduler given to {!create}, inherited by {!sub} and
    {!pooled}; [None] means the run stays on the calling domain. *)
val scheduler : t -> Scheduler.t option

(** [publish b ~witness w] offers the upper bound [w], realised by the
    ordering [witness], to [b]'s incumbent; a no-op without one. *)
val publish : t -> witness:int array -> int -> unit

(** [start b] starts the clock if it has not started yet (first call
    wins; later calls are no-ops).  Creating a {!ticker} starts the
    budget implicitly. *)
val start : t -> unit

(** Seconds since [start]; [0.] on an unstarted budget. *)
val elapsed : t -> float

(** [cancel b] trips [b]'s own cancellation flag — observed by every
    sub-budget below it — and cancels the attached incumbent, if any.
    Cancelling a sub-budget never cancels its parent or siblings. *)
val cancel : t -> unit

(** [cancelled b] holds after [cancel b], after a cancel of any
    ancestor budget, and when the attached incumbent was cancelled or
    closed by another racer. *)
val cancelled : t -> bool

(** [sub ~stages b] is a child budget holding an equal share of [b]'s
    remaining time for the next of [stages] sequential stages.  Time a
    stage leaves unspent automatically rolls over: the next [sub] call
    divides a larger remainder.  The child has its own cancellation
    flag that ORs in [b]'s (a cancelled parent stops every child; a
    cancelled child stops only itself) and does {e not} inherit [b]'s
    incumbent (bounds from one sub-problem must not prune another);
    pass the work's own incumbent explicitly if it has one.  The state
    cap and the scheduler are inherited as-is.  A sub cut after the
    deadline has passed gets a time limit of [0.], never a negative
    one. *)
val sub : ?stages:int -> t -> t

(** [pooled b] is [b] with one state count shared by all its tickers:
    the state cap bounds their total instead of each ticker's own
    count.  Clock, cancellation, incumbent and scheduler are [b]'s.  Parallel
    solvers that run one ticker per worker use it; a portfolio does
    not, so each racer keeps its own cap.  [b] itself when it has no
    state cap. *)
val pooled : t -> t

(** {2 Time-slicing support}

    The hooks {!Step} drives; solver code never calls these.  While a
    slice deadline is set (one cell shared by the whole sub-budget
    tree), any ticker poll past the deadline performs [Slice_expired],
    suspending the solve for the step runner to park and later
    resume. *)

(** Performed by a ticker poll when the current slice has expired.
    Only ever performed while a slice deadline is set — i.e. under a
    {!Step.slice} handler. *)
type _ Effect.t += Slice_expired : unit Effect.t

(** [begin_slice b ~until] arms the slice deadline (an absolute
    {!Clock} time) for [b] and all its sub-budgets. *)
val begin_slice : t -> until:float -> unit

(** [end_slice b] disarms the slice deadline. *)
val end_slice : t -> unit

(** [in_slice b] is true while a slice deadline is armed on [b] (or
    anywhere in its sub-budget tree — the cell is shared).  It is
    Step's hook: the fork rule ({!Step.run_all}) reads it so that a
    solve running under a {!Step.slice} stays on its own domain, where
    the [Slice_expired] handler lives. *)
val in_slice : t -> bool

(** [credit_pause b seconds] shifts the start times of [b] and every
    sub-budget [seconds] into the future, so time spent parked between
    slices does not count against the deadline: sliced budgets measure
    {e compute} time, not queue time. *)
val credit_pause : t -> float -> unit

(** {2 Amortized budget checking} *)

type ticker

(** [ticker b] starts [b] (if needed) and returns a fresh per-run
    ticker.  Tickers are single-domain; make one per worker. *)
val ticker : t -> ticker

val budget : ticker -> t

(** [out_of_budget tk] — the per-step check.  [true] once the deadline
    passed, the state cap was exceeded, or the budget was cancelled;
    the answer latches, so callers may keep polling cheaply after the
    first [true].  Clock reads are amortized adaptively. *)
val out_of_budget : ticker -> bool

(** [check tk] is [ignore (out_of_budget tk)] — advances the amortized
    clock so a later [out_of_budget] sees a fresh verdict.  Wrap hot
    inner callbacks (e.g. GA fitness evaluations) with it. *)
val check : ticker -> unit

(** Seconds since the ticker was created. *)
val ticker_elapsed : ticker -> float

(** Counters mirrored into the [result] record by the searches. *)
val tick_visited : ticker -> unit

val tick_generated : ticker -> unit
val visited : ticker -> int
val generated : ticker -> int
