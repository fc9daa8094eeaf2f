module Hypergraph = Hd_hypergraph.Hypergraph
module Ga_engine = Hd_ga.Ga_engine
module Saiga_ghw = Hd_ga.Saiga_ghw
module Scheduler = Hd_engine.Scheduler
module Obs = Hd_obs.Obs

let c_epochs = Obs.Counter.make "parallel.saiga.epochs"
let c_migrations = Obs.Counter.make "parallel.saiga.migrations"
let c_dropped = Obs.Counter.make "parallel.saiga.migrants_dropped"

(* a migrant carries the sender's best fitness + individual and its
   control parameters, so the receiver can orient as well as inject *)
type migrant = { fitness : int; individual : int array; params : Ga_engine.params }

let run ?(within = Hd_engine.Budget.create ()) (config : Saiga_ghw.config) h =
  Obs.with_span "saiga_par.run" @@ fun () ->
  Hd_engine.Budget.start within;
  (* one state cap for all islands together *)
  let within = Hd_engine.Budget.pooled within in
  let n_genes = Hypergraph.n_vertices h in
  let k = max 1 config.n_islands in
  (* one inbox per island; migrants flow along the directed ring
     i -> i+1, so each ring has exactly one producer (island i) and one
     consumer (island i+1): the SPSC contract Ring requires *)
  let inboxes = Array.init k (fun _ -> Ring.create 4) in
  let island i =
    let rng = Random.State.make [| config.seed; i |] in
    (* each island runs its own ticker on the shared budget, so the
       deadline and state cap are global while the amortized clock
       stays domain-local *)
    let tk = Hd_engine.Budget.ticker within in
    (* per-island evaluator: workspaces (and their set-cover memo
       tables) hold mutable scratch and must never be shared across
       domains — each island builds its own inside its domain, so the
       memo needs no locking *)
    let ws =
      Hd_core.Eval.of_hypergraph ~seed:(config.seed lxor 0x717 lxor i) h
    in
    let eval sigma =
      Hd_engine.Budget.tick_generated tk;
      Hd_engine.Budget.check tk;
      Hd_core.Eval.ghw_width ws sigma
    in
    let params = ref (Saiga_ghw.random_params rng) in
    let pop =
      Ga_engine.Population.init rng ~n_genes
        ~size:(max 2 config.island_population)
        ~eval
    in
    let stop () = Hd_engine.Budget.out_of_budget tk in
    let publish () =
      let f, ind = Ga_engine.Population.best pop in
      if Array.length ind > 0 then Hd_engine.Budget.publish within ~witness:ind f
    in
    publish ();
    let epoch = ref 0 in
    while !epoch < config.max_epochs && not (stop ()) do
      incr epoch;
      Obs.Counter.incr c_epochs;
      for _ = 1 to config.epoch_length do
        if not (stop ()) then
          Ga_engine.Population.step pop ~params:!params
            ~crossover:config.crossover ~mutation:config.mutation ~eval rng
      done;
      (* receive from the left neighbour, never blocking: an empty
         inbox just means the neighbour is mid-epoch *)
      (match Ring.try_pop inboxes.(i) with
      | Some m ->
          let own, _ = Ga_engine.Population.best pop in
          if m.fitness < own then begin
            params := Saiga_ghw.orient !params m.params;
            Ga_engine.Population.inject pop m.individual ~eval;
            Obs.Counter.incr c_migrations
          end
      | None -> ());
      (* offer our snapshot to the right neighbour; a full inbox drops
         the migrant rather than stalling this island *)
      let f, ind = Ga_engine.Population.best pop in
      if
        not
          (Ring.try_push
             inboxes.((i + 1) mod k)
             { fitness = f; individual = Array.copy ind; params = !params })
      then Obs.Counter.incr c_dropped;
      (* self-adaptation: log-normal mutation every epoch *)
      params := Saiga_ghw.mutate_params rng config.tau !params;
      publish ()
    done;
    let best, best_individual = Ga_engine.Population.best pop in
    ( best,
      best_individual,
      !epoch,
      Ga_engine.Population.evaluations pop,
      !params )
  in
  (* one executor per island (the joining caller is the last one):
     islands synchronise only through the rings and the budget *)
  let results =
    Scheduler.with_scheduler ~workers:(k - 1) (fun s ->
        Scheduler.map_array s island (Array.init k Fun.id))
  in
  let best, best_individual =
    Array.fold_left
      (fun (bf, bi) (f, ind, _, _, _) -> if f < bf then (f, ind) else (bf, bi))
      (max_int, [||])
      results
  in
  {
    Saiga_ghw.best;
    best_individual;
    epochs = Array.fold_left (fun acc (_, _, e, _, _) -> max acc e) 0 results;
    evaluations =
      Array.fold_left (fun acc (_, _, _, ev, _) -> acc + ev) 0 results;
    elapsed = Hd_engine.Budget.elapsed within;
    final_params = Array.map (fun (_, _, _, _, p) -> p) results;
  }
