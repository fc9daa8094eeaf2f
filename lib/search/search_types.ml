(* The canonical definitions live in Hd_engine.Solver; these equations
   let search code name them locally. *)

type outcome = Hd_engine.Solver.outcome =
  | Exact of int
  | Bounds of { lb : int; ub : int }

type result = Hd_engine.Solver.result = {
  outcome : outcome;
  visited : int;
  generated : int;
  elapsed : float;
  ordering : int array option;
}

let pp_outcome ppf = function
  | Exact w -> Format.fprintf ppf "%d (exact)" w
  | Bounds { lb; ub } -> Format.fprintf ppf "[%d,%d]" lb ub
