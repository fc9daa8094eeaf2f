module B = Hd_engine.Budget

type config = {
  max_steps : int;
  initial_temperature : float;
  cooling : float;
  move : Mutation.t;
  restarts : int;
  seed : int;
}

let default_config ?(max_steps = 20_000) ?(seed = 0x10ca1) () =
  {
    max_steps;
    initial_temperature = 2.0;
    cooling = 0.9995;
    move = Mutation.ISM;
    restarts = 5;
    seed;
  }

type report = {
  best : int;
  best_individual : int array;
  steps : int;
  evaluations : int;
  elapsed : float;
}

(* A search's clock [d] is a ticker on its budget, created — and hence
   started — only when the search runs, never at config creation. *)

(* an improvement goes to the budget's incumbent, if any, whose closing
   (a racer's lower bound, or a target) then stops the search *)
let improved d f sigma = B.publish (B.budget d) ~witness:sigma f

let evaluate d eval sigma =
  B.tick_generated d;
  B.check d;
  eval sigma

let simulated_annealing ?(within = B.create ()) config ~n_genes ~eval =
  let d = B.ticker within in
  let rng = Random.State.make [| config.seed |] in
  let current = Hd_core.Ordering.random rng n_genes in
  let current_fitness = ref (evaluate d eval current) in
  let best = ref !current_fitness in
  let best_individual = ref (Array.copy current) in
  improved d !best current;
  let temperature = ref config.initial_temperature in
  let step = ref 0 in
  while !step < config.max_steps && not (B.out_of_budget d) do
    incr step;
    let candidate = Array.copy current in
    Mutation.apply config.move rng candidate;
    let fitness = evaluate d eval candidate in
    let delta = float_of_int (fitness - !current_fitness) in
    let accept =
      delta <= 0.0
      || Random.State.float rng 1.0 < exp (-.delta /. max 1e-9 !temperature)
    in
    if accept then begin
      Array.blit candidate 0 current 0 n_genes;
      current_fitness := fitness;
      if fitness < !best then begin
        best := fitness;
        best_individual := Array.copy candidate;
        improved d fitness candidate
      end
    end;
    temperature := !temperature *. config.cooling
  done;
  {
    best = !best;
    best_individual = !best_individual;
    steps = !step;
    evaluations = B.generated d;
    elapsed = B.ticker_elapsed d;
  }

let iterated_local_search ?(within = B.create ()) config ~n_genes ~eval =
  let d = B.ticker within in
  let rng = Random.State.make [| config.seed |] in
  let best = ref max_int in
  let best_individual = ref (Hd_core.Ordering.random rng n_genes) in
  let steps = ref 0 in
  let descend sigma =
    (* first-improvement hill climbing with a step budget *)
    let fitness = ref (evaluate d eval sigma) in
    improved d !fitness sigma;
    let stale = ref 0 in
    let patience = max 50 (n_genes * 4) in
    while
      !stale < patience
      && !steps < config.max_steps
      && not (B.out_of_budget d)
    do
      incr steps;
      let candidate = Array.copy sigma in
      Mutation.apply config.move rng candidate;
      let f = evaluate d eval candidate in
      if f < !fitness then begin
        Array.blit candidate 0 sigma 0 n_genes;
        fitness := f;
        stale := 0;
        improved d f sigma
      end
      else incr stale
    done;
    !fitness
  in
  let restart = ref 0 in
  let sigma = Array.copy !best_individual in
  while
    !restart < config.restarts
    && !steps < config.max_steps
    && not (B.out_of_budget d)
  do
    incr restart;
    let fitness = descend sigma in
    if fitness < !best then begin
      best := fitness;
      best_individual := Array.copy sigma
    end;
    (* perturb for the next descent *)
    for _ = 1 to 3 do
      Mutation.apply config.move rng sigma
    done
  done;
  {
    best = !best;
    best_individual = !best_individual;
    steps = !steps;
    evaluations = B.generated d;
    elapsed = B.ticker_elapsed d;
  }

let sa_tw ?within config g =
  let ws = Hd_core.Eval.of_graph g in
  simulated_annealing ?within config ~n_genes:(Hd_graph.Graph.n g)
    ~eval:(Hd_core.Eval.tw_width ws)

let sa_ghw ?within config h =
  let ws = Hd_core.Eval.of_hypergraph ~seed:(config.seed lxor 0x9e) h in
  simulated_annealing ?within config
    ~n_genes:(Hd_hypergraph.Hypergraph.n_vertices h)
    ~eval:(Hd_core.Eval.ghw_width ws)
