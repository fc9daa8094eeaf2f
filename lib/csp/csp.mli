(** Constraint satisfaction problems (Definition 5).

    A CSP is variables with finite integer domains plus constraints,
    each a columnar {!Hd_query.Qrelation.t} whose scope names the
    constrained variables.
    Variable names are optional and used only for display. *)

type t

(** [make ~domains constraints] builds a CSP on
    [Array.length domains] variables.
    @raise Invalid_argument when a constraint mentions an unknown
    variable. *)
val make :
  ?variable_names:string array ->
  domains:int array array ->
  Hd_query.Qrelation.t list ->
  t

val n_variables : t -> int
val domain : t -> int -> int array
val constraints : t -> Hd_query.Qrelation.t list
val n_constraints : t -> int

(** [domain_relation csp v] is the unary relation of [v]'s domain — the
    unconstrained relation on [v]. *)
val domain_relation : t -> int -> Hd_query.Qrelation.t
val variable_name : t -> int -> string

(** [hypergraph csp] is the constraint hypergraph (Definition 7):
    vertex = variable, hyperedge = constraint scope.  Variables in no
    constraint get a singleton hyperedge so decomposition-based solving
    can cover them. *)
val hypergraph : t -> Hd_hypergraph.Hypergraph.t

(** [consistent csp assignment] checks a complete assignment
    ([assignment.(v)] is [v]'s value) against all constraints. *)
val consistent : t -> int array -> bool

(** [solve_backtracking csp] finds one solution by plain backtracking
    with forward consistency checks — the correctness oracle the
    decomposition-based solvers are tested against. *)
val solve_backtracking : t -> int array option

(** [count_solutions csp] counts complete consistent assignments by
    exhaustive backtracking (use on small instances only). *)
val count_solutions : t -> int
