(** A bounded, lock-free, single-producer single-consumer ring buffer.

    Exactly one domain may push and exactly one domain may pop (they
    can be the same).  Both operations are constant-time, non-blocking
    and allocation-free apart from the [Some] cell.  HDA* ({!Hdastar})
    keeps one ring per ordered pair of workers for the states it
    hashes to another worker; a full ring leaves the batch with its
    sender, so no worker ever blocks on a peer.

    Memory-model note: the payload is written into a per-slot
    [Atomic.t] {e before} the tail counter is advanced, and read after
    the tail is observed; the two atomic accesses give the
    happens-before edge that makes the transfer race-free.  See
    {e docs/PARALLELISM.md}. *)

type 'a t

val create : int -> 'a t
(** [create capacity] is an empty ring holding at least [capacity]
    elements (rounded up to a power of two).
    @raise Invalid_argument when [capacity < 1]. *)

val capacity : 'a t -> int
(** Actual capacity (the rounded-up power of two). *)

val try_push : 'a t -> 'a -> bool
(** [try_push t x] appends [x]; [false] when the ring is full (the
    element is dropped — callers treat migrants as advisory).  Producer
    side only. *)

val try_pop : 'a t -> 'a option
(** [try_pop t] removes the oldest element; [None] when empty.
    Consumer side only. *)

val length : 'a t -> int
(** Snapshot of the number of queued elements (exact only when called
    from one of the two endpoint domains). *)

val is_empty : 'a t -> bool
