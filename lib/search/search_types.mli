(** Shared result types of the exact-search algorithms.

    These are thin aliases of the engine's canonical types
    ({!Hd_engine.Solver.outcome}, {!Hd_engine.Solver.result}): a value
    of one type {e is} a value of the other, so search code and engine
    code interoperate without conversions.  Budgets are the engine's
    own {!Hd_engine.Budget.t}. *)

(** How a search ended. *)
type outcome = Hd_engine.Solver.outcome =
  | Exact of int  (** the optimum was proved *)
  | Bounds of { lb : int; ub : int }
      (** the budget expired; the optimum lies in [lb, ub] *)

type result = Hd_engine.Solver.result = {
  outcome : outcome;
  visited : int;  (** search states visited (expanded) *)
  generated : int;  (** search states evaluated *)
  elapsed : float;  (** wall-clock seconds *)
  ordering : int array option;
      (** an elimination ordering realising the best width found, when
          one was reached *)
}

(** [pp_outcome ppf o] prints ["w (exact)"] or ["[lb,ub]"]. *)
val pp_outcome : Format.formatter -> outcome -> unit
