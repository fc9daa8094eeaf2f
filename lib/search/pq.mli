(** A mutable binary-heap priority queue.

    [Pq.create ~compare ~dummy] orders elements so that {!pop} returns
    a minimal element under [compare] — the best-first frontier of the
    A* algorithms.

    [dummy] is a throwaway element used to fill vacated and spare
    slots of the backing array.  It is never returned and never passed
    to [compare]; it exists so that popped elements become unreachable
    immediately (A* states carry their entire elimination path, so a
    stale slot would pin dead memory).  Any
    value of the element type works; a long-lived one (e.g. the root
    state) costs nothing extra. *)

type 'a t

val create : compare:('a -> 'a -> int) -> dummy:'a -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> 'a -> unit

(** [pop q] removes and returns a minimal element, and clears the
    vacated slot so the element is not retained by the queue.
    @raise Not_found when [q] is empty. *)
val pop : 'a t -> 'a

(** [peek q] returns a minimal element without removing it.
    @raise Not_found when [q] is empty. *)
val peek : 'a t -> 'a
