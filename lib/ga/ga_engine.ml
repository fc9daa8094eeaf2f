module Obs = Hd_obs.Obs

(* Observability counters shared by every engine instance (GA-tw,
   GA-ghw, and the SAIGA islands).  Naming: docs/OBSERVABILITY.md. *)
let c_generations = Obs.Counter.make "ga.generations"
let c_evaluations = Obs.Counter.make "ga.evaluations"
let c_crossovers = Obs.Counter.make "ga.crossovers"
let c_mutations = Obs.Counter.make "ga.mutations"

type params = {
  mutation_rate : float;
  crossover_rate : float;
  tournament_size : int;
}

type config = {
  population_size : int;
  params : params;
  crossover : Crossover.t;
  mutation : Mutation.t;
  max_iterations : int;
  seed : int;
}

let default_config ?(population_size = 2000) ?(max_iterations = 2000)
    ?(seed = 0x9a) () =
  {
    population_size;
    params = { mutation_rate = 0.3; crossover_rate = 1.0; tournament_size = 3 };
    crossover = Crossover.POS;
    mutation = Mutation.ISM;
    max_iterations;
    seed;
  }

type report = {
  best : int;
  best_individual : int array;
  iterations : int;
  evaluations : int;
  elapsed : float;
  improvements : (int * int) list;
}

module Population = struct
  type t = {
    mutable members : int array array;
    mutable fitness : int array;
    mutable best : int;
    mutable best_individual : int array;
    mutable evaluations : int;
    n_genes : int;
  }

  let evaluate pop eval =
    Obs.Counter.add c_evaluations (Array.length pop.members);
    Array.iteri
      (fun i member ->
        let f = eval member in
        pop.fitness.(i) <- f;
        pop.evaluations <- pop.evaluations + 1;
        if f < pop.best then begin
          pop.best <- f;
          pop.best_individual <- Array.copy member
        end)
      pop.members

  let init rng ~n_genes ~size ~eval =
    let members =
      Array.init size (fun _ -> Hd_core.Ordering.random rng n_genes)
    in
    let pop =
      {
        members;
        fitness = Array.make size max_int;
        best = max_int;
        best_individual = Array.copy members.(0);
        evaluations = 0;
        n_genes;
      }
    in
    evaluate pop eval;
    pop

  let tournament pop rng s =
    let size = Array.length pop.members in
    let pick () = Random.State.int rng size in
    let winner = ref (pick ()) in
    for _ = 2 to s do
      let c = pick () in
      if pop.fitness.(c) < pop.fitness.(!winner) then winner := c
    done;
    !winner

  let step pop ~params ~crossover ~mutation ~eval rng =
    Obs.Counter.incr c_generations;
    let size = Array.length pop.members in
    (* selection *)
    let selected =
      Array.init size (fun _ ->
          Array.copy pop.members.(tournament pop rng params.tournament_size))
    in
    (* recombination of a crossover_rate fraction, in random pairs *)
    let order = Hd_core.Ordering.random rng size in
    let pairs = int_of_float (params.crossover_rate *. float_of_int size) / 2 in
    Obs.Counter.add c_crossovers (2 * pairs);
    for p = 0 to pairs - 1 do
      let i = order.(2 * p) and j = order.((2 * p) + 1) in
      let a = selected.(i) and b = selected.(j) in
      selected.(i) <- Crossover.apply crossover rng a b;
      selected.(j) <- Crossover.apply crossover rng b a
    done;
    (* mutation *)
    Array.iter
      (fun member ->
        if Random.State.float rng 1.0 < params.mutation_rate then begin
          Obs.Counter.incr c_mutations;
          Mutation.apply mutation rng member
        end)
      selected;
    pop.members <- selected;
    evaluate pop eval

  let best pop = (pop.best, pop.best_individual)
  let evaluations pop = pop.evaluations

  let inject pop individual ~eval =
    Obs.Counter.add c_evaluations 1;
    let size = Array.length pop.members in
    let worst = ref 0 in
    for i = 1 to size - 1 do
      if pop.fitness.(i) > pop.fitness.(!worst) then worst := i
    done;
    pop.members.(!worst) <- Array.copy individual;
    let f = eval individual in
    pop.evaluations <- pop.evaluations + 1;
    pop.fitness.(!worst) <- f;
    if f < pop.best then begin
      pop.best <- f;
      pop.best_individual <- Array.copy individual
    end
end

let run ?(within = Hd_engine.Budget.create ()) config ~n_genes ~eval =
  Obs.with_span "ga.run" @@ fun () ->
  (* the clock starts here, not at config creation *)
  let tk = Hd_engine.Budget.ticker within in
  (* every fitness evaluation ticks the budget, so deadlines and state
     caps are noticed mid-generation at eval granularity *)
  let eval s =
    Hd_engine.Budget.tick_generated tk;
    Hd_engine.Budget.check tk;
    eval s
  in
  let rng = Random.State.make [| config.seed |] in
  let pop =
    Population.init rng ~n_genes ~size:(max 2 config.population_size) ~eval
  in
  (* when racing in a portfolio, publish every best-so-far as a shared
     upper bound; the budget stops the run once the incumbent closes *)
  let publish () =
    let f, ind = Population.best pop in
    Hd_engine.Budget.publish within ~witness:ind f
  in
  publish ();
  let improvements = ref [ (0, fst (Population.best pop)) ] in
  let iteration = ref 0 in
  while
    !iteration < config.max_iterations
    && not (Hd_engine.Budget.out_of_budget tk)
  do
    incr iteration;
    let before = fst (Population.best pop) in
    Population.step pop ~params:config.params ~crossover:config.crossover
      ~mutation:config.mutation ~eval rng;
    let after = fst (Population.best pop) in
    if after < before then begin
      improvements := (!iteration, after) :: !improvements;
      publish ()
    end
  done;
  let best, best_individual = Population.best pop in
  {
    best;
    best_individual;
    iterations = !iteration;
    evaluations = Population.evaluations pop;
    elapsed = Hd_engine.Budget.ticker_elapsed tk;
    improvements = List.rev !improvements;
  }
