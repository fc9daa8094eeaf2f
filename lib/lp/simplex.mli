(** Exact rational linear programming.

    A dense single-phase dual simplex over {!Rat} tableaus, specialised
    to the covering shape [min c.x  s.t.  A x >= b, x >= 0] with
    [c >= 0] and [b >= 0].  It pivots on the dual packing LP
    [max b.y  s.t.  A^T y <= c, y >= 0], whose all-slack basis is
    feasible from the start, and reads the primal optimum off the final
    reduced costs of the slack columns.  Entering and leaving variables
    both follow Bland's smallest-index rule, so the method terminates
    on every input (no cycling, no perturbation); all arithmetic is
    exact, so [Optimal] carries the true rational optimum together with
    a dual certificate for it.  This is the fractional-edge-cover oracle
    behind the [fhw-*] solvers (see {e docs/WIDTHS.md}).

    Counters: [lp.solves], [lp.pivots]. *)

type outcome =
  | Optimal of { value : Rat.t; solution : Rat.t array; dual : Rat.t array }
      (** [solution] is an optimal primal [x]; [dual] is an optimal [y]
          of the packing LP ([A^T y <= c], [y >= 0]) with
          [b.y = c.x = value] — a weak-duality certificate that [value]
          is the minimum. *)
  | Infeasible  (** no [x >= 0] satisfies [A x >= b]: the dual is unbounded *)

(** [minimize ~objective ~constraints ~bounds] solves
    [min objective . x] subject to [constraints.(i) . x >= bounds.(i)]
    for every row [i] and [x >= 0].  With a non-negative objective the
    minimum is bounded below by 0, so there is no unbounded outcome.
    @raise Invalid_argument on mismatched dimensions, a negative bound
    or a negative objective entry. *)
val minimize :
  objective:Rat.t array ->
  constraints:Rat.t array array ->
  bounds:Rat.t array ->
  outcome
