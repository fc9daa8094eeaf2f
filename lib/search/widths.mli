(** One-call width analysis of a hypergraph.

    Runs the whole ladder — acyclicity, treewidth, generalized
    hypertree width, fractional hypertree width, hypertree width —
    each under a share of a common time budget, and reports every
    number with its certainty.  This is the "question and answer"
    entry point: which width notions make this instance tractable, and
    at what cost. *)

type report = {
  n_vertices : int;
  n_hyperedges : int;
  primal_edges : int;
  acyclic : bool;  (** alpha-acyclic (GYO) — equivalent to ghw = 1 *)
  tw : Hd_engine.Solver.outcome;  (** treewidth via A*-tw *)
  ghw : Hd_engine.Solver.outcome;
      (** generalized hypertree width via BB-ghw *)
  fhw : Hd_lp.Rat.t;
      (** fractional hypertree width via BB-fhw: the exact rational
          value when [fhw_exact], otherwise the best witnessed upper
          bound *)
  fhw_exact : bool;
  hw : int option;  (** hypertree width via det-k-decomp, [None] on timeout *)
}

(** [analyze ?within ?seed h] computes the report; the budget [within]
    (default: a fresh 10s one) is split across the exact searches. *)
val analyze :
  ?within:Hd_engine.Budget.t ->
  ?seed:int ->
  Hd_hypergraph.Hypergraph.t ->
  report

val pp : Format.formatter -> report -> unit
