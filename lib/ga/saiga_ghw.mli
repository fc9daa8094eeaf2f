(** SAIGA-ghw (Section 7.2): a self-adaptive island genetic algorithm
    for generalized hypertree width upper bounds.

    Several GA-ghw populations (islands) evolve in parallel on a ring.
    Each island owns a control-parameter vector (mutation rate,
    crossover rate, tournament group size).  After every epoch an
    island compares its best fitness with its ring neighbours'; if a
    neighbour is strictly better the island {e orients} its parameters
    toward the neighbour's (Section 7.2.5) and receives the neighbour's
    best individual as a migrant.  All parameter vectors then undergo
    log-normal mutation (Section 7.2.4), so good settings spread and
    keep exploring — no hand tuning required, the property Table 7.2
    demonstrates.

    {!run} is the tree's one island driver: the [saiga-ghw] registry
    entry runs it with four islands, [saiga-ghw-par] with one island
    per executor of the budget's scheduler.

    The paper's pages describing the exact orientation arithmetic are
    not in the supplied text; the reconstruction here (documented in
    DESIGN.md) moves each parameter halfway toward the better
    neighbour's and perturbs multiplicatively with
    [exp (tau * gaussian)]. *)

type config = {
  n_islands : int;
  island_population : int;
  epoch_length : int;  (** generations between adaptation steps *)
  max_epochs : int;
  crossover : Crossover.t;
  mutation : Mutation.t;
  tau : float;  (** log-normal parameter mutation strength *)
  seed : int;
}

val default_config :
  ?n_islands:int ->
  ?island_population:int ->
  ?epoch_length:int ->
  ?max_epochs:int ->
  ?seed:int ->
  unit ->
  config

type report = {
  best : int;
  best_individual : int array;
  epochs : int;
  evaluations : int;
  elapsed : float;
  final_params : Ga_engine.params array;
      (** the self-adapted parameter vector of every island *)
}

val run :
  ?within:Hd_engine.Budget.t ->
  config ->
  Hd_hypergraph.Hypergraph.t ->
  report
(** [within] is the run's one budget, shared by every island; its
    incumbent, if any, receives the ghw upper bound after every epoch
    and stops the run once it closes or is cancelled.  See
    {!Ga_engine.run}.

    Each epoch evolves the islands as one task per island, through
    {!Hd_engine.Step.run_all}: the tasks fork onto [within]'s scheduler
    when it carries one and no slice is armed, and otherwise run on
    the caller in island order.  Orientation,
    migration and self-adaptation happen on the caller at the epoch
    barrier.  Every island owns its ticker on
    [Hd_engine.Budget.pooled within], so the state cap bounds all
    islands' evaluations together.  An island's epoch depends only on
    that island's state, so the report is the same with or without a
    scheduler and at any worker count, unless a deadline,
    cancellation or the shared state cap cuts the run mid-epoch. *)
