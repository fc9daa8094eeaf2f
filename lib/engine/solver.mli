(** The solver registry: every width solver in the tree as a
    first-class value.

    A registered solver takes a {!Budget.t} and a {!problem} and
    returns an anytime {!result}; solvers that can share bounds do so
    through the budget's incumbent.  The registry is one flat
    name-indexed table — the portfolio rosters, corpus sweeps, the
    server, the bench harness and the [-m] CLI option all resolve
    strategies here instead of hard-wiring call sites.

    The libraries that own the algorithms only build their entries
    ([Hd_search.Solvers.all], [Hd_ga.Solvers.all]); one function,
    [Hd_parallel.Registry.ensure], registers all of them and the
    parallel variants, so every front door that calls it sees every
    solver.  This module only holds the table.  The [outcome] and
    [result] types are the int view every registry entry reports; the
    searches' own cost-typed results become it in
    [Hd_search.Solvers]. *)

(** How a run ended. *)
type outcome =
  | Exact of int  (** the optimum was proved *)
  | Bounds of { lb : int; ub : int }
      (** the budget expired; the optimum lies in [lb, ub] *)

type result = {
  outcome : outcome;
  visited : int;  (** search states visited (expanded) *)
  generated : int;  (** search states / fitness evaluations *)
  elapsed : float;  (** wall-clock seconds *)
  ordering : int array option;
      (** an elimination ordering realising the best width found, when
          one was reached *)
}

(** The width notion a solver optimises.  [Fhw] solvers optimise the
    exact rational fractional hypertree width but report
    [ceil (fhw)] through the int-valued {!result} — sound under the
    max-combining of {!Blocks} since [ceil (max a b) = max (ceil a)
    (ceil b)]; the exact rational is recovered from the witness
    ordering via [Hd_core.Eval.fhw_width_q]. *)
type kind = Tw | Ghw | Fhw | Hw

type problem =
  | Graph of Hd_graph.Graph.t
  | Hypergraph of Hd_hypergraph.Hypergraph.t

type t = {
  name : string;
  kind : kind;
  doc : string;  (** one-line description for [--list-solvers] *)
  run : ?seed:int -> Budget.t -> problem -> result;
}

(** [register s] adds [s] to the table, replacing any previous solver
    of the same name (its listing position is kept).  Thread-safe. *)
val register : t -> unit

val find : string -> t option

(** All registered solvers, in registration order. *)
val all : unit -> t list

val names : unit -> string list
val kind_name : kind -> string

(** {2 Problem helpers} *)

(** The primal graph — identity on [Graph] problems. *)
val primal_of : problem -> Hd_graph.Graph.t

(** The hypergraph view — one 2-vertex hyperedge per edge on [Graph]
    problems. *)
val hypergraph_of : problem -> Hd_hypergraph.Hypergraph.t

val n_vertices : problem -> int

(** {2 Outcome helpers} *)

(** The proved optimum or the upper bound. *)
val value : outcome -> int

(** [(lb, ub)]; equal on [Exact]. *)
val bounds_of : outcome -> int * int

(** [pp_outcome ppf o] prints ["w (exact)"] or ["[lb,ub]"]. *)
val pp_outcome : Format.formatter -> outcome -> unit
