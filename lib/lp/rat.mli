(** Exact arbitrary-precision rational numbers.

    The value type of the LP layer: every {!Simplex} tableau entry and
    every fractional cover weight is a [Rat.t], so optimality decisions
    are made by exact integer cross-multiplication, never by float
    comparison against an epsilon.  Values are kept normalised
    (positive denominator, coprime parts), which also keeps the parts
    small through long pivot sequences.

    A value has one of two representations, chosen by the value
    alone: native-int parts when both are below [2^30] in magnitude
    (every cross product then fits a native int, so arithmetic on two
    such values takes a native gcd path with no overflow check), and
    a {!Bigint} pair otherwise.  Results return to the native form
    whenever they fit, so the representation is canonical and
    invisible: {!equal}, {!hash}, {!to_string}, {!num} and {!den}
    depend only on the value. *)

type t

val zero : t
val one : t

(** [make num den] is the normalised rational [num/den].
    @raise Invalid_argument when [den = 0]. *)
val make : int -> int -> t

(** [make_big num den] is {!make} over arbitrary-precision parts. *)
val make_big : Bigint.t -> Bigint.t -> t

val of_int : int -> t

(** Normalised numerator (sign-carrying). *)
val num : t -> Bigint.t

(** Normalised denominator (always positive). *)
val den : t -> Bigint.t

val is_integer : t -> bool

(** [sign v] is [-1], [0] or [1]. *)
val sign : t -> int

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Division_by_zero when the divisor is zero. *)
val div : t -> t -> t

(** [inv v] is [1/v].  @raise Division_by_zero when [v] is zero. *)
val inv : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val max : t -> t -> t

(** [compare_int v k] is [compare v (of_int k)]. *)
val compare_int : t -> int -> int

(** [floor v] / [ceil v] as native ints.
    @raise Invalid_argument when the result exceeds the native range. *)
val floor : t -> int

val ceil : t -> int

(** ["num/den"], or just ["num"] for integers. *)
val to_string : t -> string

(** Parses ["3"], ["3/2"], ["-7/5"] …
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val hash : t -> int
val pp : Format.formatter -> t -> unit
