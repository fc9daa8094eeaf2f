(** A shared, domain-safe incumbent: the best lower bound, best upper
    bound and best witness ordering found so far by {e any} of a set of
    concurrently running solvers.

    The hd_parallel portfolio hands one incumbent to every solver it
    races.  Each solver prunes against {!ub} instead of a private
    reference, so an improvement found by one domain immediately
    tightens every other domain's search; {!raise_lb} lets best-first
    solvers publish frontier lower bounds the same way.  The race is
    over when the incumbent {!closed} ([lb >= ub]) or is {!cancel}led.

    All three fields live in a single [Atomic.t] holding an immutable
    record, updated by compare-and-set loops — readers always see a
    mutually consistent (lb, ub, witness) triple, which separate atomic
    cells could not guarantee.  See {e docs/PARALLELISM.md}. *)

type t

val create : ?lb:int -> ?ub:int -> unit -> t
(** [create ()] is a fresh incumbent with bounds [(0, max_int)] and no
    witness.  @raise Invalid_argument when [lb > ub]. *)

val lb : t -> int
(** Best published lower bound. *)

val ub : t -> int
(** Best published upper bound; pruning threshold for every solver. *)

val bounds : t -> int * int
(** [(lb, ub)] read from one atomic snapshot (consistent pair). *)

val witness : t -> int array option
(** An elimination ordering achieving {!ub}, when some solver supplied
    one.  The array is frozen — do not mutate it. *)

val offer_ub : t -> ?witness:int array -> int -> bool
(** [offer_ub t ~witness w] publishes upper bound [w] (with an ordering
    achieving it) if it beats the current {!ub}.  The witness is copied
    once; the caller keeps ownership of its buffer.  Returns [true]
    when the incumbent improved, [false] when someone else got there
    first — losing a race is not an error. *)

val raise_lb : t -> int -> bool
(** [raise_lb t w] publishes lower bound [w] if it beats the current
    {!lb}.  Only sound for {e global} lower bounds (root heuristic
    bounds, A* frontier f-values) — a DFS branch bound is not one. *)

val closed : t -> bool
(** [closed t] is [lb >= ub]: optimality is proved, every racer should
    return. *)

val cancel : t -> unit
(** Ask every solver sharing [t] to stop at its next check.  Used by
    the portfolio once a winner finished, and by timeouts. *)

val cancelled : t -> bool
