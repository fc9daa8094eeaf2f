(** Exact fractional edge covers.

    Relaxing the set cover integrality gives the fractional cover
    number rho*(bag): assign a weight in [0, 1] to every hyperedge so
    each bag vertex receives total weight at least 1, minimising the
    weight sum.  Replacing exact covers with rho* in the width of an
    ordering yields the fractional hypertree width, the third width
    measure of the hypertree decomposition literature, with
    fhw <= ghw <= hw.

    The LP dual is the fractional vertex packing: weights on the bag's
    vertices such that every hyperedge receives total weight at most 1,
    maximising the weight sum.  Any packing weighs at most any cover
    (weak duality), so a cover and a packing of equal weight prove that
    weight is rho* — a certificate {!certify} checks without solving an
    LP.

    All values are exact rationals computed by {!Hd_lp.Simplex}; no
    float ever enters a decision path.  Counter: [lp.oracle_calls]. *)

(** An optimum of the covering LP together with its dual. *)
type solution = {
  value : Hd_lp.Rat.t;  (** rho* of the bag *)
  weights : (int * Hd_lp.Rat.t) list;
      (** optimal cover: hyperedge index and positive weight *)
  packing : (int * Hd_lp.Rat.t) list;
      (** optimal packing: bag vertex and positive weight *)
}

(** [cover_value problem] is rho* of the bag, the exact optimum of the
    covering LP.
    @raise Invalid_argument when some bag vertex lies in no
    hyperedge. *)
val cover_value : Set_cover.problem -> Hd_lp.Rat.t

(** [cover problem] also returns an optimal cover and an optimal
    packing (only entries with positive weight appear). *)
val cover : Set_cover.problem -> solution

(** [verify problem weights] checks, in exact arithmetic, that
    [weights] is a feasible fractional cover: every weight is
    non-negative and every universe vertex receives total weight at
    least 1. *)
val verify : Set_cover.problem -> (int * Hd_lp.Rat.t) list -> bool

(** [verify_packing problem packing] checks, in exact arithmetic, that
    [packing] is a feasible fractional vertex packing: every weight is
    non-negative and sits on a universe vertex, and every hyperedge
    receives total weight at most 1. *)
val verify_packing : Set_cover.problem -> (int * Hd_lp.Rat.t) list -> bool

(** [certify problem s] accepts [s.value] as rho* by weak duality: the
    cover passes {!verify}, the packing passes {!verify_packing}, and
    both weigh exactly [s.value].  Used by [hd_validate --fhw] to audit
    every bag. *)
val certify : Set_cover.problem -> solution -> bool
