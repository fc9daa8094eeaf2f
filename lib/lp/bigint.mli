(** Arbitrary-precision signed integers.

    The integer kernel under {!Rat}: sign-plus-magnitude numbers in
    base [2^30] limbs, implemented on native ints with no external
    dependency.  Only the operations exact rational arithmetic needs
    are exposed — ring operations, comparison, division with
    remainder, gcd, and conversions. *)

type t

val zero : t
val one : t

val of_int : int -> t

(** [to_int_opt v] is [v] as a native int when it fits, else [None]. *)
val to_int_opt : t -> int option

val is_zero : t -> bool

(** [sign v] is [-1], [0] or [1]. *)
val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is the truncated quotient and remainder: the quotient
    rounds toward zero and the remainder carries the sign of [a],
    matching [Stdlib.( / )] and [Stdlib.( mod )].
    @raise Division_by_zero when [b] is zero. *)
val divmod : t -> t -> t * t

(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0]
    is [0]. *)
val gcd : t -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int

(** [to_string v] is the decimal representation. *)
val to_string : t -> string

(** [of_string s] parses an optionally signed decimal integer.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val hash : t -> int
val pp : Format.formatter -> t -> unit
