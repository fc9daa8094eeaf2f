(** Columnar finite relations: query bags and CSP constraints alike.

    A [Qrelation.t] pairs a scope — an array of distinct attribute ids
    (query-variable or CSP-variable ids, or column numbers
    [0 .. k-1] for base tables) — with a deduplicated set of integer
    tuples stored column-wise.  Query values are interned constants
    ({!Intern}), so comparisons are integer comparisons.

    Relations are immutable.  This module is storage only: joins,
    semijoins and projections are the columnar kernel's ({!Colexec},
    driven over join trees by {!Join_tree}). *)

type t

(** [make ~scope rows] deduplicates [rows] (first occurrence kept, order
    preserved).
    @raise Invalid_argument on arity mismatch or duplicate scope
    attributes. *)
val make : scope:int array -> int array list -> t

(** [of_columns_unchecked ~scope cols ~n] wraps already-columnar data:
    [cols.(j).(i)] is row [i], column [j], rows assumed distinct,
    every column of length [n], [scope] assumed duplicate-free.  The
    columnar kernel's ({!Colexec}) materialisation entry point — the
    arrays are adopted, not copied, and must not be mutated after. *)
val of_columns_unchecked : scope:int array -> int array array -> n:int -> t

val scope : t -> int array
val arity : t -> int
val cardinality : t -> int
val is_empty : t -> bool

(** [get r i j] is column [j] of row [i]. *)
val get : t -> int -> int -> int

(** [col r j] is column [j]'s backing array — flat access for the
    columnar kernel.  Do not mutate. *)
val col : t -> int -> int array

(** [columns r] is the full column-major storage.  Do not mutate. *)
val columns : t -> int array array

(** [row r i] is row [i] as a fresh array. *)
val row : t -> int -> int array

(** [rows r] lists all rows in their stable stored order. *)
val rows : t -> int array list

(** [mem r tuple] is a column scan, linear in [r]'s size. *)
val mem : t -> int array -> bool

(** [position r attr] is [attr]'s column.
    @raise Not_found when [attr] is outside the scope. *)
val position : t -> int -> int

(** [positions r attrs] maps {!position} over [attrs]. *)
val positions : t -> int array -> int array

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
