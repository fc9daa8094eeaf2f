(** A fixed-capacity Chase–Lev work-stealing deque.

    One owner domain pushes and pops at the bottom (LIFO — hot tasks
    stay cache-warm); any number of thief domains steal from the top
    (FIFO — the oldest, typically largest, task migrates).  All three
    operations are lock-free; the only blocking anywhere in the
    scheduler is the parking condition variable in {!Scheduler}.

    Memory-model note: every slot is its own [Atomic.t], so a thief
    that wins the CAS on [top] is guaranteed to have read the element
    the owner published — the slot write happens-before the [bottom] publication, which happens-before
    the thief's [top] read.  The buffer does not grow: {!push} reports
    [`Full] and the {!Scheduler} overflows into its global injector
    queue instead, which keeps the hot path allocation-free. *)

type 'a t

val create : int -> 'a t
(** [create capacity] is an empty deque holding at least [capacity]
    elements (rounded up to a power of two).
    @raise Invalid_argument when [capacity < 1]. *)

val push : 'a t -> 'a -> [ `Ok | `Full ]
(** Owner side only: append at the bottom. *)

val pop : 'a t -> 'a option
(** Owner side only: remove the most recently pushed element. *)

val steal : 'a t -> 'a option
(** Thief side: remove the oldest element.  [None] means empty {e or}
    lost a race — callers just move to the next victim. *)

val length : 'a t -> int
(** Snapshot of the current size (exact only on the owner domain). *)
