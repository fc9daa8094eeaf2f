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
    {!Ga_engine.run}. *)

(** {2 Self-adaptation primitives}

    Exposed for the domain-parallel island driver
    ({e Hd_parallel.Saiga_par}), which re-implements only the epoch
    loop and migration topology, not the adaptation arithmetic. *)

val random_params : Random.State.t -> Ga_engine.params
(** Fresh random control-parameter vector (Section 7.2.3). *)

val orient : Ga_engine.params -> Ga_engine.params -> Ga_engine.params
(** [orient own better] moves [own] halfway toward [better]
    (Section 7.2.5). *)

val mutate_params :
  Random.State.t -> float -> Ga_engine.params -> Ga_engine.params
(** [mutate_params rng tau p] log-normally perturbs every component of
    [p] (Section 7.2.4). *)
