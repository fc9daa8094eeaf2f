module Obs = Hd_obs.Obs

let c_epochs = Obs.Counter.make "ga.epochs"
let c_migrations = Obs.Counter.make "ga.migrations"

type config = {
  n_islands : int;
  island_population : int;
  epoch_length : int;
  max_epochs : int;
  crossover : Crossover.t;
  mutation : Mutation.t;
  tau : float;
  seed : int;
}

let default_config ?(n_islands = 4) ?(island_population = 100)
    ?(epoch_length = 25) ?(max_epochs = 40) ?(seed = 0x5a16a) () =
  {
    n_islands;
    island_population;
    epoch_length;
    max_epochs;
    crossover = Crossover.POS;
    mutation = Mutation.ISM;
    tau = 0.3;
    seed;
  }

type report = {
  best : int;
  best_individual : int array;
  epochs : int;
  evaluations : int;
  elapsed : float;
  final_params : Ga_engine.params array;
}

let clamp lo hi x = max lo (min hi x)

let gaussian rng =
  (* Box-Muller *)
  let u1 = max 1e-12 (Random.State.float rng 1.0) in
  let u2 = Random.State.float rng 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let mutate_params rng tau (p : Ga_engine.params) : Ga_engine.params =
  let scale x = x *. exp (tau *. gaussian rng) in
  {
    Ga_engine.mutation_rate = clamp 0.01 1.0 (scale p.Ga_engine.mutation_rate);
    crossover_rate = clamp 0.1 1.0 (scale p.Ga_engine.crossover_rate);
    tournament_size =
      clamp 2 8
        (int_of_float
           (Float.round (float_of_int p.Ga_engine.tournament_size
                        *. exp (tau *. gaussian rng))));
  }

let orient (own : Ga_engine.params) (better : Ga_engine.params) :
    Ga_engine.params =
  (* move halfway toward the better neighbour's vector *)
  {
    Ga_engine.mutation_rate =
      (own.Ga_engine.mutation_rate +. better.Ga_engine.mutation_rate) /. 2.0;
    crossover_rate =
      (own.Ga_engine.crossover_rate +. better.Ga_engine.crossover_rate) /. 2.0;
    tournament_size =
      (own.Ga_engine.tournament_size + better.Ga_engine.tournament_size + 1) / 2;
  }

(* random initial parameter vector (Section 7.2.3) *)
let random_params rng =
  {
    Ga_engine.mutation_rate = 0.05 +. Random.State.float rng 0.5;
    crossover_rate = 0.5 +. Random.State.float rng 0.5;
    tournament_size = 2 + Random.State.int rng 3;
  }

let run ?(within = Hd_engine.Budget.create ()) config h =
  Obs.with_span "saiga_ghw.run" @@ fun () ->
  (* one state cap for all islands together, one ticker each *)
  let within = Hd_engine.Budget.pooled within in
  let n_genes = Hd_hypergraph.Hypergraph.n_vertices h in
  let k = max 1 config.n_islands in
  let rngs =
    Array.init k (fun i -> Random.State.make [| config.seed; i |])
  in
  (* tickers and evaluator workspaces are single-domain, and an
     island's epoch may run on any executor: each island owns one of
     each, so its checkpoints only ever see its own orderings.  Every
     evaluation ticks the budget, so deadlines are noticed mid-epoch. *)
  let tickers = Array.init k (fun _ -> Hd_engine.Budget.ticker within) in
  let evals =
    Array.init k (fun i ->
        let tk = tickers.(i) in
        let ws =
          Hd_core.Eval.of_hypergraph ~seed:(config.seed lxor 0x717 lxor i) h
        in
        let width = Hd_core.Eval.ghw_width ws in
        fun sigma ->
          Hd_engine.Budget.tick_generated tk;
          Hd_engine.Budget.check tk;
          width sigma)
  in
  let params = Array.init k (fun i -> random_params rngs.(i)) in
  let islands =
    Array.init k (fun i ->
        Ga_engine.Population.init rngs.(i) ~n_genes
          ~size:(max 2 config.island_population)
          ~eval:evals.(i))
  in
  let out_of_time () = Array.exists Hd_engine.Budget.out_of_budget tickers in
  (* one island's epoch touches only that island's state *)
  let evolve i () =
    for _ = 1 to config.epoch_length do
      if not (Hd_engine.Budget.out_of_budget tickers.(i)) then
        Ga_engine.Population.step islands.(i) ~params:params.(i)
          ~crossover:config.crossover ~mutation:config.mutation
          ~eval:evals.(i) rngs.(i)
    done
  in
  let global_best () =
    Array.fold_left
      (fun (bf, bi) island ->
        let f, ind = Ga_engine.Population.best island in
        if f < bf then (f, ind) else (bf, bi))
      (max_int, [||])
      islands
  in
  let publish () =
    let f, ind = global_best () in
    if Array.length ind > 0 then Hd_engine.Budget.publish within ~witness:ind f
  in
  publish ();
  let epoch = ref 0 in
  while !epoch < config.max_epochs && not (out_of_time ()) do
    incr epoch;
    Obs.Counter.incr c_epochs;
    (* evolve every island for one epoch, forked or in island order *)
    Hd_engine.Step.run_all within (List.init k evolve);
    (* the epoch barrier: neighbour orientation and migration on the
       ring, on the caller *)
    let fitness = Array.map (fun isl -> fst (Ga_engine.Population.best isl)) islands in
    let next_params = Array.copy params in
    for i = 0 to k - 1 do
      let left = (i + k - 1) mod k and right = (i + 1) mod k in
      let best_nbr = if fitness.(left) <= fitness.(right) then left else right in
      if fitness.(best_nbr) < fitness.(i) then begin
        next_params.(i) <- orient params.(i) params.(best_nbr);
        let _, migrant = Ga_engine.Population.best islands.(best_nbr) in
        Obs.Counter.incr c_migrations;
        Ga_engine.Population.inject islands.(i) migrant ~eval:evals.(i)
      end
    done;
    (* self-adaptation: log-normal mutation of every vector *)
    for i = 0 to k - 1 do
      params.(i) <- mutate_params rngs.(i) config.tau next_params.(i)
    done;
    publish ()
  done;
  let best, best_individual = global_best () in
  {
    best;
    best_individual;
    epochs = !epoch;
    evaluations =
      Array.fold_left
        (fun acc isl -> acc + Ga_engine.Population.evaluations isl)
        0 islands;
    elapsed = Hd_engine.Budget.ticker_elapsed tickers.(0);
    final_params = params;
  }
