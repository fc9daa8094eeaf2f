(** The permutation genetic algorithm of Figure 6.1.

    The engine is problem-agnostic: it minimises an integer fitness over
    permutations of [0 .. n_genes - 1].  GA-tw instantiates it with the
    tree-decomposition width evaluation (Figure 6.2), GA-ghw with the
    greedy-set-cover width (Figure 7.1); SAIGA-ghw drives several
    engines as islands.

    Each generation applies tournament selection, pairwise crossover on
    a [crossover_rate] fraction of the population, and mutation of each
    individual with probability [mutation_rate], then re-evaluates —
    exactly the structure and parameter semantics of Section 6.1. *)

type params = {
  mutation_rate : float;  (** p_m of the paper *)
  crossover_rate : float;  (** p_c of the paper *)
  tournament_size : int;  (** group size s of tournament selection *)
}

type config = {
  population_size : int;  (** individuals per generation (>= 2) *)
  params : params;
  crossover : Crossover.t;  (** recombination operator (Section 6.1.2) *)
  mutation : Mutation.t;  (** mutation operator (Section 6.1.3) *)
  max_iterations : int;  (** generation cap *)
  seed : int;  (** PRNG seed; equal seeds give equal runs *)
}

(** The paper's tuned configuration (Tables 6.3-6.5): POS crossover, ISM
    mutation, p_c = 1.0, p_m = 0.3, tournament group size 3. *)
val default_config :
  ?population_size:int -> ?max_iterations:int -> ?seed:int -> unit -> config

type report = {
  best : int;  (** best fitness ever evaluated *)
  best_individual : int array;  (** a permutation achieving [best] *)
  iterations : int;  (** generations actually run *)
  evaluations : int;  (** total fitness evaluations *)
  elapsed : float;  (** wall-clock seconds *)
  improvements : (int * int) list;
      (** (iteration, fitness) at each improvement, earliest first *)
}

(** [run config ~n_genes ~eval] evolves a population and returns the
    best fitness found.  [eval] must be a pure function of the
    permutation (up to its own internal randomness).

    [within] is the run's one engine budget (default: unlimited):
    deadline, state cap per fitness evaluation, cooperative
    cancellation, and the clock starts when [run] is entered, never
    earlier.  When the budget carries an incumbent (an hd_parallel
    portfolio), every best-so-far fitness is offered to it as a shared
    upper bound, with its permutation as witness — only meaningful
    when the fitness {e is} a width — and the run stops once the
    incumbent closes or is cancelled.  A target fitness is a lower
    bound raised on that incumbent ({!Hd_core.Incumbent.raise_lb}).
    The incumbent never influences evolution, so a run that is not cut
    short is identical with and without one. *)
val run :
  ?within:Hd_engine.Budget.t ->
  config ->
  n_genes:int ->
  eval:(int array -> int) ->
  report

(** A population with explicit generations, for island models. *)
module Population : sig
  type t

  (** [init rng ~n_genes ~size ~eval] creates [size] random permutations
      of [0 .. n_genes - 1] and evaluates them all. *)
  val init :
    Random.State.t -> n_genes:int -> size:int -> eval:(int array -> int) -> t

  (** [step pop ~params ~crossover ~mutation ~eval rng] runs one
      generation. *)
  val step :
    t ->
    params:params ->
    crossover:Crossover.t ->
    mutation:Mutation.t ->
    eval:(int array -> int) ->
    Random.State.t ->
    unit

  (** [best pop] is the best (fitness, individual) ever seen. *)
  val best : t -> int * int array

  (** [evaluations pop] is the number of fitness evaluations spent on
      this population so far. *)
  val evaluations : t -> int

  (** [inject pop individual ~eval] replaces the currently worst member
      with a copy of [individual] (migration between islands). *)
  val inject : t -> int array -> eval:(int array -> int) -> unit
end
