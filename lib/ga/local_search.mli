(** Local search over elimination orderings: simulated annealing and
    iterated local search.

    Section 4.5 notes that on Larranaga et al.'s triangulation
    benchmarks only simulated annealing matched the genetic algorithm's
    results — these implementations provide that comparator for the
    width objectives, plus a simple iterated-local-search baseline.
    Moves are the paper's mutation operators (ISM by default), so the
    neighbourhood matches the GA's. *)

type config = {
  max_steps : int;
  initial_temperature : float;
  cooling : float;  (** geometric factor per step, e.g. 0.999 *)
  move : Mutation.t;
  restarts : int;  (** for iterated local search *)
  seed : int;
}

val default_config : ?max_steps:int -> ?seed:int -> unit -> config

type report = {
  best : int;
  best_individual : int array;
  steps : int;
  evaluations : int;
  elapsed : float;
}

(** Every entry point takes [within], the run's one engine budget
    (default: unlimited): deadline, state cap per evaluation and
    cooperative cancellation.  The clock starts when the search starts
    — never at config or driver creation.  When the budget carries an
    incumbent, every improvement is offered to it (with its
    permutation as witness, so the fitness should be a width) and the
    search stops once it closes; a target fitness is a lower bound
    raised on that incumbent.

    [iterated_local_search config ~n_genes ~eval] runs first-improvement
    hill climbing to a local optimum, then perturbs (3 random moves)
    and repeats, keeping the best of [restarts] descents. *)
val iterated_local_search :
  ?within:Hd_engine.Budget.t ->
  config -> n_genes:int -> eval:(int array -> int) -> report

(** [sa_tw config g] is simulated annealing — Metropolis acceptance
    over mutation moves with geometric cooling — on the treewidth
    objective (Figure 6.2). *)
val sa_tw : ?within:Hd_engine.Budget.t -> config -> Hd_graph.Graph.t -> report

(** [sa_ghw config h] is simulated annealing on the greedy-cover ghw
    objective (Figure 7.1). *)
val sa_ghw :
  ?within:Hd_engine.Budget.t -> config -> Hd_hypergraph.Hypergraph.t -> report
