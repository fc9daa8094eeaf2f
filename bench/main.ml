(* Experiment harness: regenerates every table and figure of the
   paper's evaluation at a configurable scale.

     dune exec bench/main.exe                 -- quick pass over all tables
     dune exec bench/main.exe -- table-5.1    -- one table
     dune exec bench/main.exe -- -t 60 -full table-5.1
                                              -- paper-size instance list,
                                                 60s per exact run
     dune exec bench/main.exe -- micro        -- Bechamel kernel benchmarks
     dune exec bench/main.exe -- ablation     -- design-choice ablations
     dune exec bench/main.exe -- -j 4 parallel
                                              -- portfolio race on 4 domains
     dune exec bench/main.exe -- -j 4 -states 20000 corpus
                                              -- deterministic mini-corpus
                                                 sweep on 4 domains
     dune exec bench/main.exe -- -states 20000 -baseline old.json corpus
                                              -- regression gate vs a
                                                 previous report (exit 3
                                                 on regressions)

   Results never match the paper's absolute numbers (different machine,
   scaled budgets); the tables print the paper's reported value next to
   ours so the shape comparison is immediate.  EXPERIMENTS.md records a
   full run. *)

module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module St = Hd_search.Search_types
module Ga_engine = Hd_ga.Ga_engine
open Harness

let graph name =
  match Hd_instances.Graphs.by_name name with
  | Some g -> g
  | None -> failwith ("unknown graph instance " ^ name)

let hypergraph name =
  match Hd_instances.Hypergraphs.by_name name with
  | Some h -> h
  | None -> failwith ("unknown hypergraph instance " ^ name)

let initial_bounds_tw g seed =
  let rng = Random.State.make [| seed |] in
  let ws = Hd_core.Eval.of_graph g in
  let _, ub =
    Hd_core.Ordering_heuristics.best_of rng g ~trials:3
      ~eval:(Hd_core.Eval.tw_width ws)
  in
  (Hd_bounds.Lower_bounds.treewidth ~rng g, ub)

(* ------------------------------------------------------------------ *)
(* Table 5.1 / 5.2: A*-tw                                              *)
(* ------------------------------------------------------------------ *)

let table_5_1 scale =
  header "Table 5.1 -- A*-tw on DIMACS-style graphs (vs QuickBB / BB-tw)";
  Printf.printf "%-12s %5s %7s | %4s %4s %10s %8s | %8s %8s %6s\n" "graph" "V"
    "E" "lb" "ub" "A*-tw" "time" "paperA*" "QuickBB" "BB-tw";
  let instances =
    if scale.full then List.map (fun (n, _, _, _) -> n) Paper.table_5_1
    else
      [ "anna"; "david"; "huck"; "jean"; "queen5_5"; "queen6_6"; "myciel3";
        "myciel4"; "miles250"; "zeroin.i.1" ]
  in
  List.iter
    (fun name ->
      let g = graph name in
      let lb, ub = initial_bounds_tw g 1 in
      let result, secs =
        time (fun () -> Hd_search.Astar_tw.solve ~within:(within scale) ~seed:1 g)
      in
      let paper_a, paper_q, paper_b =
        match List.find_opt (fun (n, _, _, _) -> n = name) Paper.table_5_1 with
        | Some (_, a, q, b) -> (a, q, b)
        | None -> ("-", "-", "-")
      in
      Printf.printf "%-12s %5d %7d | %4d %4d %10s %7.2fs | %8s %8s %6s\n" name
        (Graph.n g) (Graph.m g) lb ub
        (outcome_string result.St.outcome)
        secs paper_a paper_q paper_b)
    instances

let table_5_2 scale =
  header "Table 5.2 -- A*-tw on n x n grids (treewidth of gridN is N)";
  Printf.printf "%-8s %5s %5s | %4s %4s %10s %8s | %8s\n" "graph" "V" "E" "lb"
    "ub" "A*-tw" "time" "paper";
  List.iter
    (fun (name, paper) ->
      let g = graph name in
      let lb, ub = initial_bounds_tw g 1 in
      let result, secs =
        time (fun () -> Hd_search.Astar_tw.solve ~within:(within scale) ~seed:1 g)
      in
      Printf.printf "%-8s %5d %5d | %4d %4d %10s %7.2fs | %8s\n" name
        (Graph.n g) (Graph.m g) lb ub
        (outcome_string result.St.outcome)
        secs paper)
    Paper.table_5_2

(* ------------------------------------------------------------------ *)
(* Tables 6.1-6.5: GA-tw parameter studies                             *)
(* ------------------------------------------------------------------ *)

let ga_study_instances scale =
  if scale.full then [ "games120"; "myciel7"; "queen16_16"; "le450_25a" ]
  else [ "games120"; "myciel5"; "queen8_8" ]

let run_ga_tw scale g ~crossover ~mutation ~params ~population ~run =
  let config =
    {
      Ga_engine.population_size = population;
      params;
      crossover;
      mutation;
      max_iterations = scale.iterations;
      seed = 1000 + run;
    }
  in
  (Hd_ga.Ga_tw.run config g).Ga_engine.best

let default_params =
  { Ga_engine.mutation_rate = 0.3; crossover_rate = 1.0; tournament_size = 2 }

let table_6_1 scale =
  header "Table 6.1 -- GA-tw crossover operators (pc=1.0, pm=0)";
  Printf.printf "paper ranking: %s\n\n" (String.concat " > " Paper.table_6_1_ranking);
  Printf.printf "%-12s %-5s | %7s %5s %5s\n" "instance" "op" "avg" "min" "max";
  List.iter
    (fun name ->
      let g = graph name in
      let rows =
        List.map
          (fun op ->
            let s =
              summarise ~runs:scale.runs (fun ~run ->
                  run_ga_tw scale g ~crossover:op ~mutation:Hd_ga.Mutation.ISM
                    ~params:
                      { default_params with Ga_engine.mutation_rate = 0.0 }
                    ~population:scale.population ~run)
            in
            (Hd_ga.Crossover.name op, s))
          Hd_ga.Crossover.all
      in
      let sorted = List.sort (fun (_, a) (_, b) -> compare a.avg b.avg) rows in
      List.iter
        (fun (op, s) ->
          Printf.printf "%-12s %-5s | %7.1f %5d %5d\n" name op s.avg s.min s.max)
        sorted)
    (ga_study_instances scale)

let table_6_2 scale =
  header "Table 6.2 -- GA-tw mutation operators (pc=0, pm=1.0)";
  Printf.printf "paper ranking: %s\n\n" (String.concat " > " Paper.table_6_2_ranking);
  Printf.printf "%-12s %-5s | %7s %5s %5s\n" "instance" "op" "avg" "min" "max";
  List.iter
    (fun name ->
      let g = graph name in
      let rows =
        List.map
          (fun op ->
            let s =
              summarise ~runs:scale.runs (fun ~run ->
                  run_ga_tw scale g ~crossover:Hd_ga.Crossover.POS ~mutation:op
                    ~params:
                      {
                        default_params with
                        Ga_engine.crossover_rate = 0.0;
                        mutation_rate = 1.0;
                      }
                    ~population:scale.population ~run)
            in
            (Hd_ga.Mutation.name op, s))
          Hd_ga.Mutation.all
      in
      let sorted = List.sort (fun (_, a) (_, b) -> compare a.avg b.avg) rows in
      List.iter
        (fun (op, s) ->
          Printf.printf "%-12s %-5s | %7.1f %5d %5d\n" name op s.avg s.min s.max)
        sorted)
    (ga_study_instances scale)

let table_6_3 scale =
  header "Table 6.3 -- GA-tw mutation x crossover rates (POS/ISM)";
  let pc_w, pm_w = Paper.table_6_3_winner in
  Printf.printf "paper winner: pc=%.1f pm=%.1f\n\n" pc_w pm_w;
  Printf.printf "%-12s %4s %5s | %7s %5s %5s\n" "instance" "pc" "pm" "avg" "min"
    "max";
  List.iter
    (fun name ->
      let g = graph name in
      List.iter
        (fun pc ->
          List.iter
            (fun pm ->
              let s =
                summarise ~runs:scale.runs (fun ~run ->
                    run_ga_tw scale g ~crossover:Hd_ga.Crossover.POS
                      ~mutation:Hd_ga.Mutation.ISM
                      ~params:
                        {
                          default_params with
                          Ga_engine.crossover_rate = pc;
                          mutation_rate = pm;
                        }
                      ~population:scale.population ~run)
              in
              Printf.printf "%-12s %4.1f %5.2f | %7.1f %5d %5d\n" name pc pm
                s.avg s.min s.max)
            [ 0.01; 0.1; 0.3 ])
        [ 0.8; 0.9; 1.0 ])
    (ga_study_instances scale)

let table_6_4 scale =
  header "Table 6.4 -- GA-tw population sizes (paper: bigger is better)";
  Printf.printf "%-12s %5s | %7s %5s %5s\n" "instance" "pop" "avg" "min" "max";
  List.iter
    (fun name ->
      let g = graph name in
      List.iter
        (fun pop ->
          let s =
            summarise ~runs:scale.runs (fun ~run ->
                run_ga_tw scale g ~crossover:Hd_ga.Crossover.POS
                  ~mutation:Hd_ga.Mutation.ISM
                  ~params:default_params ~population:pop ~run)
          in
          Printf.printf "%-12s %5d | %7.1f %5d %5d\n" name pop s.avg s.min s.max)
        [ scale.population / 2; scale.population; scale.population * 2 ])
    (ga_study_instances scale)

let table_6_5 scale =
  header "Table 6.5 -- tournament selection group sizes (paper: 3-4 best)";
  Printf.printf "%-12s %3s | %7s %5s %5s\n" "instance" "s" "avg" "min" "max";
  List.iter
    (fun name ->
      let g = graph name in
      List.iter
        (fun s_size ->
          let s =
            summarise ~runs:scale.runs (fun ~run ->
                run_ga_tw scale g ~crossover:Hd_ga.Crossover.POS
                  ~mutation:Hd_ga.Mutation.ISM
                  ~params:{ default_params with Ga_engine.tournament_size = s_size }
                  ~population:scale.population ~run)
          in
          Printf.printf "%-12s %3d | %7.1f %5d %5d\n" name s_size s.avg s.min
            s.max)
        [ 2; 3; 4 ])
    (ga_study_instances scale)

let table_6_6 scale =
  header "Table 6.6 -- GA-tw final results vs best-known upper bounds";
  Printf.printf "%-12s %5s %7s | %5s %5s %7s %6s %8s | %5s %5s\n" "graph" "V"
    "E" "min" "max" "avg" "std" "time" "ub" "paper";
  let instances =
    if scale.full then List.map (fun (n, _, _) -> n) Paper.table_6_6
    else
      [ "anna"; "david"; "huck"; "jean"; "queen5_5"; "queen6_6"; "queen7_7";
        "myciel3"; "myciel4"; "myciel5"; "miles250"; "games120" ]
  in
  let improved = ref 0 and matched = ref 0 and worse = ref 0 in
  List.iter
    (fun name ->
      let g = graph name in
      let s =
        summarise ~runs:scale.runs (fun ~run ->
            run_ga_tw scale g ~crossover:Hd_ga.Crossover.POS
              ~mutation:Hd_ga.Mutation.ISM
              ~params:{ default_params with Ga_engine.tournament_size = 3 }
              ~population:scale.population ~run)
      in
      let known_ub, paper_min =
        match List.find_opt (fun (n, _, _) -> n = name) Paper.table_6_6 with
        | Some (_, ub, pm) -> (string_of_int ub, string_of_int pm)
        | None -> ("-", "-")
      in
      (match List.find_opt (fun (n, _, _) -> n = name) Paper.table_6_6 with
      | Some (_, ub, _) ->
          if s.min < ub then incr improved
          else if s.min = ub then incr matched
          else incr worse
      | None -> ());
      Printf.printf "%-12s %5d %7d | %5d %5d %7.1f %6.2f %7.1fs | %5s %5s\n"
        name (Graph.n g) (Graph.m g) s.min s.max s.avg s.std s.secs known_ub
        paper_min)
    instances;
  Printf.printf
    "\nvs known ub: improved %d, matched %d, worse %d  (paper: 22/31/9 over 62 graphs)\n"
    !improved !matched !worse

(* ------------------------------------------------------------------ *)
(* Tables 7.1 / 7.2: GA-ghw and SAIGA-ghw                              *)
(* ------------------------------------------------------------------ *)

let ghw_instances scale =
  if scale.full then List.map (fun (n, _, _) -> n) Paper.table_7_1
  else
    [ "adder_15"; "adder_25"; "bridge_15"; "clique_10"; "clique_15";
      "grid2d_10"; "grid3d_4"; "b06" ]

let table_7_1 scale =
  header "Table 7.1 -- GA-ghw on benchmark hypergraphs";
  Printf.printf "%-12s %5s %5s | %5s %5s %7s %6s %8s | %5s %5s\n" "hypergraph"
    "V" "H" "min" "max" "avg" "std" "time" "ub" "paper";
  List.iter
    (fun name ->
      let h = hypergraph name in
      let s =
        summarise ~runs:scale.runs (fun ~run ->
            let config =
              Ga_engine.default_config ~population_size:scale.population
                ~max_iterations:scale.iterations ~seed:(2000 + run) ()
            in
            (Hd_ga.Ga_ghw.run config h).Ga_engine.best)
      in
      let prev_ub, paper_min =
        match List.find_opt (fun (n, _, _) -> n = name) Paper.table_7_1 with
        | Some (_, ub, pm) -> (string_of_int ub, string_of_int pm)
        | None -> ("-", "-")
      in
      Printf.printf "%-12s %5d %5d | %5d %5d %7.1f %6.2f %7.1fs | %5s %5s\n"
        name (Hypergraph.n_vertices h) (Hypergraph.n_edges h) s.min s.max s.avg
        s.std s.secs prev_ub paper_min)
    (ghw_instances scale)

let table_7_2 scale =
  header "Table 7.2 -- SAIGA-ghw (self-adaptive island GA)";
  Printf.printf "(%s)\n\n" Paper.truncated_note;
  Printf.printf "%-12s %5s %5s | %5s %5s %7s %8s | %6s\n" "hypergraph" "V" "H"
    "min" "max" "avg" "time" "GA-ghw";
  List.iter
    (fun name ->
      let h = hypergraph name in
      let ga_best =
        let config =
          Ga_engine.default_config ~population_size:scale.population
            ~max_iterations:scale.iterations ~seed:2001 ()
        in
        (Hd_ga.Ga_ghw.run config h).Ga_engine.best
      in
      let s =
        summarise ~runs:scale.runs (fun ~run ->
            let config =
              Hd_ga.Saiga_ghw.default_config ~n_islands:4
                ~island_population:(max 10 (scale.population / 4))
                ~epoch_length:(max 5 (scale.iterations / 10))
                ~max_epochs:10 ~seed:(3000 + run) ()
            in
            (Hd_ga.Saiga_ghw.run config h).Hd_ga.Saiga_ghw.best)
      in
      Printf.printf "%-12s %5d %5d | %5d %5d %7.1f %7.1fs | %6d\n" name
        (Hypergraph.n_vertices h) (Hypergraph.n_edges h) s.min s.max s.avg
        s.secs ga_best)
    (ghw_instances scale)

(* ------------------------------------------------------------------ *)
(* Tables 8.1 / 9.1: BB-ghw and A*-ghw                                 *)
(* ------------------------------------------------------------------ *)

let exact_ghw_table title solve scale =
  header title;
  Printf.printf "(%s)\n\n" Paper.truncated_note;
  Printf.printf "%-12s %5s %5s | %4s %4s %10s %8s %9s\n" "hypergraph" "V" "H"
    "lb" "ub" "result" "time" "visited";
  List.iter
    (fun name ->
      let h = hypergraph name in
      let rng = Random.State.make [| 1 |] in
      let lb = Hd_bounds.Lower_bounds.ghw ~rng h in
      let ws = Hd_core.Eval.of_hypergraph h in
      let sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
      let ub = Hd_core.Eval.ghw_width ~rng ws sigma in
      let result, secs = time (fun () -> solve ~within:(within scale) h) in
      Printf.printf "%-12s %5d %5d | %4d %4d %10s %7.2fs %9d\n" name
        (Hypergraph.n_vertices h) (Hypergraph.n_edges h) lb ub
        (outcome_string result.St.outcome)
        secs result.St.visited)
    (ghw_instances scale)

let table_8_1 scale =
  exact_ghw_table "Table 8.1/8.2 -- BB-ghw (exact bag covers, tw-ksc-width lb)"
    (fun ~within h -> Hd_search.Bb_ghw.solve ~within ~seed:1 h)
    scale

let table_9_1 scale =
  exact_ghw_table "Table 9.1/9.2 -- A*-ghw (best-first, anytime lower bounds)"
    (fun ~within h -> Hd_search.Astar_ghw.solve ~within ~seed:1 h)
    scale

(* ------------------------------------------------------------------ *)
(* Figure 2 series: the worked example                                 *)
(* ------------------------------------------------------------------ *)

let figure_2 () =
  header "Figures 2.5/2.8/2.9 -- solving Example 5 through decompositions";
  let csp = Hd_csp.Models.example5 () in
  let h = Hd_csp.Csp.hypergraph csp in
  Format.printf "%a@.@." Hypergraph.pp h;
  let sigma = [| 0; 2; 4; 1; 3; 5 |] in
  let td = Hd_core.Tree_decomposition.of_ordering_hypergraph h sigma in
  Format.printf "Figure 2.6(b) tree decomposition (width %d):@.%a@.@."
    (Hd_core.Tree_decomposition.width td)
    Hd_core.Tree_decomposition.pp td;
  let ghd = Hd_core.Ghd.of_ordering h sigma ~cover:`Exact in
  Format.printf "Figure 2.7 generalized hypertree decomposition (width %d):@.%a@.@."
    (Hd_core.Ghd.width ghd) (Hd_core.Ghd.pp h) ghd;
  (match Hd_csp.Solver.solve_with_td csp td with
  | Some a ->
      Format.printf "Figure 2.8: solution from the tree decomposition:@.  ";
      Array.iteri
        (fun v value ->
          Format.printf "%s=%c " (Hd_csp.Csp.variable_name csp v)
            [| 'a'; 'b'; 'c' |].(value))
        a;
      Format.printf "@."
  | None -> failwith "example 5 is satisfiable");
  match Hd_csp.Solver.solve_with_ghd csp ghd with
  | Some a ->
      Format.printf "Figure 2.9: solution from the (complete) GHD:@.  ";
      Array.iteri
        (fun v value ->
          Format.printf "%s=%c " (Hd_csp.Csp.variable_name csp v)
            [| 'a'; 'b'; 'c' |].(value))
        a;
      Format.printf "@."
  | None -> failwith "example 5 is satisfiable"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_setcover scale =
  header "Ablation -- exact vs greedy set covers inside BB-ghw";
  Printf.printf "%-12s | %12s %8s | %12s %8s\n" "hypergraph" "exact" "time"
    "greedy" "time";
  List.iter
    (fun name ->
      let h = hypergraph name in
      let exact, t1 =
        time (fun () ->
            Hd_search.Bb_ghw.solve ~within:(within scale) ~seed:1 ~cover:`Exact h)
      in
      let greedy, t2 =
        time (fun () ->
            Hd_search.Bb_ghw.solve ~within:(within scale) ~seed:1 ~cover:`Greedy h)
      in
      Printf.printf "%-12s | %12s %7.2fs | %12s %7.2fs\n" name
        (outcome_string exact.St.outcome)
        t1
        (outcome_string greedy.St.outcome)
        t2)
    [ "adder_15"; "bridge_15"; "clique_10"; "clique_15"; "b06" ]

let ablation_dedup scale =
  header "Ablation -- A* duplicate-state detection (our extension)";
  Printf.printf "%-12s | %10s %9s %8s | %10s %9s %8s\n" "graph" "plain"
    "visited" "time" "dedup" "visited" "time";
  List.iter
    (fun name ->
      let g = graph name in
      let plain, t1 =
        time (fun () -> Hd_search.Astar_tw.solve ~within:(within scale) ~seed:1 g)
      in
      let dedup, t2 =
        time (fun () ->
            Hd_search.Astar_tw.solve ~within:(within scale) ~dedup:true ~seed:1 g)
      in
      Printf.printf "%-12s | %10s %9d %7.2fs | %10s %9d %7.2fs\n" name
        (outcome_string plain.St.outcome)
        plain.St.visited t1
        (outcome_string dedup.St.outcome)
        dedup.St.visited t2)
    [ "queen5_5"; "queen6_6"; "grid5"; "grid6"; "myciel4" ]

let ablation_pruning scale =
  header "Ablation -- PR2 pruning and simplicial reductions in BB-tw";
  Printf.printf "%-10s | %10s %9s | %10s %9s | %10s %9s\n" "graph" "both"
    "visited" "no PR2" "visited" "no reduce" "visited";
  List.iter
    (fun name ->
      let g = graph name in
      let both = Hd_search.Bb_tw.solve ~within:(within scale) ~seed:1 g in
      let no_pr2 =
        Hd_search.Bb_tw.solve ~within:(within scale) ~seed:1 ~use_pr2:false g
      in
      let no_red =
        Hd_search.Bb_tw.solve ~within:(within scale) ~seed:1
          ~use_reductions:false g
      in
      Printf.printf "%-10s | %10s %9d | %10s %9d | %10s %9d\n" name
        (outcome_string both.St.outcome)
        both.St.visited
        (outcome_string no_pr2.St.outcome)
        no_pr2.St.visited
        (outcome_string no_red.St.outcome)
        no_red.St.visited)
    [ "queen5_5"; "grid5"; "myciel4"; "grid6" ]

let ablation_lb scale =
  header "Ablation -- treewidth lower bound heuristics";
  ignore scale;
  Printf.printf "%-12s | %6s %6s %6s %9s\n" "graph" "MMD" "MMD+" "gammaR"
    "combined";
  List.iter
    (fun name ->
      let g = graph name in
      let rng = Random.State.make [| 1 |] in
      Printf.printf "%-12s | %6d %6d %6d %9d\n" name
        (Hd_bounds.Lower_bounds.degeneracy g)
        (Hd_bounds.Lower_bounds.minor_min_width ~rng g)
        (Hd_bounds.Lower_bounds.minor_gamma_r ~rng g)
        (Hd_bounds.Lower_bounds.treewidth ~rng g))
    [ "queen5_5"; "queen6_6"; "grid6"; "myciel5"; "anna"; "DSJC125.1" ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the kernels                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Micro -- Bechamel benchmarks of the computational kernels";
  let open Bechamel in
  let open Toolkit in
  let g = graph "queen8_8" in
  let h = hypergraph "adder_25" in
  let rng = Random.State.make [| 7 |] in
  let sigma_g = Hd_core.Ordering.random rng (Graph.n g) in
  let sigma_h = Hd_core.Ordering.random rng (Hypergraph.n_vertices h) in
  let ws_g = Hd_core.Eval.of_graph g in
  let ws_h = Hd_core.Eval.of_hypergraph h in
  let eg = Hd_graph.Elim_graph.of_graph g in
  let bag =
    Hd_graph.Bitset.of_list (Hypergraph.n_vertices h)
      (List.init 12 (fun i -> i * 9))
  in
  let cover_problem = { Hd_setcover.Set_cover.universe = bag; hypergraph = h } in
  let tests =
    Test.make_grouped ~name:"kernels" ~fmt:"%s %s"
      [
        Test.make ~name:"tw-eval/queen8_8"
          (Staged.stage (fun () -> ignore (Hd_core.Eval.tw_width ws_g sigma_g)));
        Test.make ~name:"ghw-eval/adder_25"
          (Staged.stage (fun () ->
               ignore (Hd_core.Eval.ghw_width ~rng ws_h sigma_h)));
        Test.make ~name:"setcover-exact"
          (Staged.stage (fun () ->
               ignore (Hd_setcover.Set_cover.exact cover_problem)));
        Test.make ~name:"eliminate+restore"
          (Staged.stage (fun () ->
               Hd_graph.Elim_graph.eliminate eg 17;
               Hd_graph.Elim_graph.restore_last eg));
        Test.make ~name:"minor-min-width"
          (Staged.stage (fun () ->
               ignore (Hd_bounds.Lower_bounds.minor_min_width ~rng g)));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] -> Printf.printf "%-28s %12.1f ns/run\n" name ns
      | _ -> Printf.printf "%-28s (no estimate)\n" name)
    (List.sort compare rows)


(* ------------------------------------------------------------------ *)
(* Extension experiments beyond the paper                              *)
(* ------------------------------------------------------------------ *)

(* GA vs simulated annealing vs iterated local search: Section 4.5
   reports that SA was the only method matching the GA on the
   triangulation benchmarks; this regenerates that comparison on the
   width objective. *)
let extension_heuristics scale =
  header "Extension -- GA-tw vs SA vs ILS (same evaluation budget)";
  Printf.printf "%-12s | %6s %8s | %6s %8s | %6s %8s\n" "graph" "GA" "evals"
    "SA" "evals" "ILS" "evals";
  List.iter
    (fun name ->
      let g = graph name in
      let budget_evals = scale.population * scale.iterations in
      let ga =
        let config =
          Ga_engine.default_config ~population_size:scale.population
            ~max_iterations:scale.iterations ~seed:1 ()
        in
        Hd_ga.Ga_tw.run config g
      in
      let sa_config =
        {
          (Hd_ga.Local_search.default_config ~max_steps:budget_evals ~seed:1 ())
          with
          Hd_ga.Local_search.cooling =
            (* reach a cold state by the end of the budget *)
            exp (log 0.001 /. float_of_int budget_evals);
        }
      in
      let sa = Hd_ga.Local_search.sa_tw sa_config g in
      let ws = Hd_core.Eval.of_graph g in
      let ils =
        Hd_ga.Local_search.iterated_local_search
          { sa_config with Hd_ga.Local_search.restarts = 8 }
          ~n_genes:(Graph.n g) ~eval:(Hd_core.Eval.tw_width ws)
      in
      Printf.printf "%-12s | %6d %8d | %6d %8d | %6d %8d\n" name
        ga.Ga_engine.best ga.Ga_engine.evaluations
        sa.Hd_ga.Local_search.best sa.Hd_ga.Local_search.evaluations
        ils.Hd_ga.Local_search.best ils.Hd_ga.Local_search.evaluations)
    (ga_study_instances scale)

(* hypertree width vs generalized hypertree width on instances small
   enough for det-k-decomp: the hw >= ghw gap in practice *)
let extension_hw scale =
  header "Extension -- hw (det-k-decomp) vs ghw (BB-ghw) vs fhw (LP covers)";
  Printf.printf "%-12s %4s %4s | %6s %10s %8s %8s\n" "hypergraph" "V" "H" "hw"
    "ghw" "fhw(ub)" "hw-time";
  List.iter
    (fun name ->
      let h = hypergraph name in
      let hw_result, secs =
        time (fun () ->
            try
              let hw, hd =
                Hd_search.Det_k_decomp.hypertree_width
                  ~within:(Hd_engine.Budget.create ~time_limit:scale.time_limit ())
                  h
              in
              assert (Hd_search.Det_k_decomp.valid h hd);
              Printf.sprintf "%d*" hw
            with Hd_search.Det_k_decomp.Timeout _ -> "t/o")
      in
      let ghw = Hd_search.Bb_ghw.solve ~within:(within scale) ~seed:1 h in
      let fhw =
        let rng = Random.State.make [| 1 |] in
        let sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
        let ws = Hd_core.Eval.of_hypergraph h in
        Hd_lp.Rat.to_string (Hd_core.Eval.fhw_width_q ws sigma)
      in
      Printf.printf "%-12s %4d %4d | %6s %10s %8s %7.2fs\n" name
        (Hypergraph.n_vertices h) (Hypergraph.n_edges h) hw_result
        (outcome_string ghw.St.outcome) fhw secs)
    [ "adder_15"; "adder_25"; "adder_50"; "bridge_15"; "clique_10" ]

(* preprocessing payoff on near-chordal instances *)
let extension_preprocess scale =
  header "Extension -- Bodlaender preprocessing before A*-tw";
  Printf.printf "%-12s | %10s %8s | %10s %8s %9s\n" "graph" "plain" "time"
    "preproc" "time" "kernel-n";
  List.iter
    (fun name ->
      let g = graph name in
      let plain, t1 =
        time (fun () -> Hd_search.Astar_tw.solve ~within:(within scale) ~seed:1 g)
      in
      let pre, t2 =
        time (fun () ->
            Hd_search.Preprocess.treewidth_with_preprocessing
              ~within:(within scale) ~seed:1 g)
      in
      let kernel =
        let r =
          Hd_search.Preprocess.reduce
            ~lb:(Hd_bounds.Lower_bounds.treewidth g) g
        in
        Graph.n g - List.length r.Hd_search.Preprocess.eliminated
      in
      Printf.printf "%-12s | %10s %7.2fs | %10s %7.2fs %9d\n" name
        (outcome_string plain.St.outcome)
        t1
        (outcome_string pre.St.outcome)
        t2 kernel)
    [ "anna"; "david"; "jean"; "miles250"; "zeroin.i.1"; "queen5_5" ]

(* scaling series over the parametric circuit families: the bounded-
   ghw behaviour the adder/bridge families exhibit in Tables 7-9 *)
let scaling scale =
  header "Scaling -- BB-ghw across the adder_k / bridge_k families";
  Printf.printf "%-12s %5s %5s | %10s %8s\n" "instance" "V" "H" "BB-ghw" "time";
  List.iter
    (fun name ->
      let h = hypergraph name in
      let result, secs =
        time (fun () -> Hd_search.Bb_ghw.solve ~within:(within scale) ~seed:1 h)
      in
      Printf.printf "%-12s %5d %5d | %10s %7.2fs\n" name
        (Hypergraph.n_vertices h) (Hypergraph.n_edges h)
        (outcome_string result.St.outcome)
        secs)
    [ "adder_15"; "adder_25"; "adder_50"; "adder_75"; "adder_99";
      "bridge_15"; "bridge_25"; "bridge_50"; "bridge_75"; "bridge_99" ]

(* incremental heuristic kernels vs the retained naive reference
   (docs/PERFORMANCE.md), recorded as BENCH_report.json's "ordering"
   section: per-instance naive-vs-incremental wall times for min-fill
   and min-degree (plus MCS), the byte-identical check, and the
   suffix-reuse / set-cover-memo counters of a GA-ghw run *)
let ordering scale =
  header "Ordering -- incremental heuristic kernels vs naive rescans";
  let module Heur = Hd_core.Ordering_heuristics in
  let instances =
    (* largest bundled graphs: where the O(affected) maintenance pays *)
    let sorted =
      List.sort
        (fun (_, a, _) (_, b, _) -> compare (b : int) a)
        Hd_instances.Graphs.names
    in
    let k = if scale.full then 6 else 3 in
    List.filteri (fun i _ -> i < k) sorted
  in
  Printf.printf "%-12s %5s %7s | %9s %9s %7s %5s | %9s %9s %7s %5s | %8s\n"
    "graph" "V" "E" "fill-nv" "fill-inc" "speedup" "same" "deg-nv" "deg-inc"
    "speedup" "same" "mcs";
  let entries =
    List.map
      (fun (name, _, _) ->
        let g = graph name in
        let side_by_side incr naive =
          let a, t_inc = time (fun () -> incr (Random.State.make [| 1 |]) g) in
          let b, t_nv = time (fun () -> naive (Random.State.make [| 1 |]) g) in
          (a = b, t_inc, t_nv, (if t_inc > 0.0 then t_nv /. t_inc else 1.0))
        in
        let fill_same, fill_inc, fill_nv, fill_speedup =
          side_by_side Heur.min_fill Heur.Naive.min_fill
        in
        let deg_same, deg_inc, deg_nv, deg_speedup =
          side_by_side Heur.min_degree Heur.Naive.min_degree
        in
        let _, mcs_secs =
          time (fun () -> Heur.max_cardinality (Random.State.make [| 1 |]) g)
        in
        Printf.printf
          "%-12s %5d %7d | %8.3fs %8.3fs %6.1fx %5s | %8.3fs %8.3fs %6.1fx %5s | %7.3fs\n"
          name (Graph.n g) (Graph.m g) fill_nv fill_inc fill_speedup
          (if fill_same then "yes" else "NO")
          deg_nv deg_inc deg_speedup
          (if deg_same then "yes" else "NO")
          mcs_secs;
        Obs.Json.Obj
          [
            ("instance", Obs.Json.String name);
            ("vertices", Obs.Json.Int (Graph.n g));
            ("edges", Obs.Json.Int (Graph.m g));
            ("min_fill_naive_seconds", Obs.Json.Float fill_nv);
            ("min_fill_incremental_seconds", Obs.Json.Float fill_inc);
            ("min_fill_speedup", Obs.Json.Float fill_speedup);
            ("min_fill_identical", Obs.Json.Bool fill_same);
            ("min_degree_naive_seconds", Obs.Json.Float deg_nv);
            ("min_degree_incremental_seconds", Obs.Json.Float deg_inc);
            ("min_degree_speedup", Obs.Json.Float deg_speedup);
            ("min_degree_identical", Obs.Json.Bool deg_same);
            ("mcs_seconds", Obs.Json.Float mcs_secs);
          ])
      instances
  in
  let counter name = Hd_obs.Obs.Counter.value (Hd_obs.Obs.Counter.make name) in
  let key_recomputes = counter "ordering.key_recomputes" in
  let dirty_skips = counter "ordering.dirty_skips" in
  (* GA generations through the suffix-reuse evaluator: the memo and
     checkpoint counters the acceptance gate asserts on *)
  let ga_instance = "grid2d_10" in
  let h = hypergraph ga_instance in
  let config =
    Ga_engine.default_config ~population_size:scale.population
      ~max_iterations:scale.iterations ~seed:1 ()
  in
  let report, ga_secs = time (fun () -> Hd_ga.Ga_ghw.run config h) in
  let suffix = counter "ga.suffix_reevals" and full = counter "ga.full_reevals" in
  let hits = counter "setcover.memo_hits" and misses = counter "setcover.memo_misses" in
  Printf.printf
    "\ndirty-set: %d key recomputes, %d skips\n\
     GA-ghw %s: best %d in %.1fs -- %d suffix / %d full re-evals, \
     set-cover memo %d hits / %d misses (%.1f%% hit rate)\n"
    key_recomputes dirty_skips ga_instance report.Ga_engine.best ga_secs suffix
    full hits misses
    (100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
  set_ordering_section
    (Obs.Json.Obj
       [
         ("instances", Obs.Json.List entries);
         ("key_recomputes", Obs.Json.Int key_recomputes);
         ("dirty_skips", Obs.Json.Int dirty_skips);
         ( "ga",
           Obs.Json.Obj
             [
               ("hypergraph", Obs.Json.String ga_instance);
               ("best", Obs.Json.Int report.Ga_engine.best);
               ("seconds", Obs.Json.Float ga_secs);
               ("suffix_reevals", Obs.Json.Int suffix);
               ("full_reevals", Obs.Json.Int full);
               ("setcover_memo_hits", Obs.Json.Int hits);
               ("setcover_memo_misses", Obs.Json.Int misses);
             ] );
       ])

(* the per-layer payoff of the work-stealing scheduler: blocks
   fork/join, hash-distributed A*, and the partitioned columnar passes
   each race -j N against their sequential twin, every row sharing one
   schema {layer, instance, jobs, seconds_j1, seconds, speedup_vs_j1};
   the original portfolio race keeps its rows under layer "portfolio".

   Determinism is always hard: a parallel result that differs from its
   -j 1 twin fails the experiment on any machine.  The >= 1.5x speedup
   gate on >= 2 scheduler layers is enforced only on a machine with
   >= 4 cores running -j >= 4 -- everywhere else (CI's -j 2 smoke job,
   laptops) the speedup column is report-only. *)
let parallel scale =
  let module Sched = Hd_parallel.Scheduler in
  let module B = Hd_engine.Budget in
  let module Sv = Hd_engine.Solver in
  Hd_search.Solvers.ensure ();
  Hd_ga.Solvers.ensure ();
  let cores = Domain.recommended_domain_count () in
  let jobs = max 1 scale.jobs in
  let workers = max 1 (jobs - 1) in
  header
    (Printf.sprintf "Parallel -- scheduler layers, -j %d vs -j 1 (%d cores)"
       jobs cores);
  Printf.printf "%-10s %-14s | %8s | %8s | %7s  %s\n" "layer" "instance" "-j 1"
    (Printf.sprintf "-j %d" jobs)
    "speedup" "notes";
  let mismatches = ref [] in
  let check_same layer what same =
    if not same then begin
      mismatches := Printf.sprintf "%s: parallel %s differs from -j 1" layer what
                    :: !mismatches;
      Printf.eprintf "parallel: %s -- parallel %s differs from -j 1\n" layer
        what
    end
  in
  let row ?(extra = []) ?(notes = "") ~layer ~instance t1 t2 =
    let speedup = if t2 > 0.0 then t1 /. t2 else 1.0 in
    Printf.printf "%-10s %-14s | %7.2fs | %7.2fs | %6.2fx  %s\n" layer instance
      t1 t2 speedup notes;
    ( (layer, speedup),
      Obs.Json.Obj
        ([
           ("layer", Obs.Json.String layer);
           ("instance", Obs.Json.String instance);
           ("jobs", Obs.Json.Int jobs);
           ("seconds_j1", Obs.Json.Float t1);
           ("seconds", Obs.Json.Float t2);
           ("speedup_vs_j1", Obs.Json.Float speedup);
         ]
        @ extra) )
  in
  (* one scheduler serves all three layer races; its domains spawn
     outside the timed regions, matching production where the shared
     scheduler is created once per process *)
  let blocks_row, hdastar_row, columnar_row =
    Sched.with_scheduler ~workers @@ fun sched ->
    (* layer "blocks": Engine.run forks the biconnected blocks of a
       cut-vertex chain through the Exec runner hook *)
    let blocks_row =
      let copies = max 6 (2 * jobs) in
      let chain = Hd_instances.Graphs.chain ~copies (graph "myciel4") in
      let solve () =
        Hd_engine.Engine.run_by_name ~seed:1 "bb-tw"
          (within scale)
          (Sv.Graph chain)
      in
      let seq, t1 = time solve in
      let par, t2 =
        time (fun () ->
            Hd_engine.Exec.with_runner
              { Hd_engine.Exec.run_all = (fun fns -> Sched.run_all sched fns) }
              solve)
      in
      check_same "blocks" "outcome" (par.Sv.outcome = seq.Sv.outcome);
      check_same "blocks" "witness" (par.Sv.ordering = seq.Sv.ordering);
      row ~layer:"blocks"
        ~instance:(Printf.sprintf "myciel4 x%d" copies)
        ~notes:(outcome_string par.Sv.outcome)
        ~extra:[ ("outcome", Obs.Json.String (outcome_string par.Sv.outcome)) ]
        t1 t2
    in
    (* layer "hdastar": the hash-distributed open list vs sequential A*;
       both must prove the same width when neither hits the budget *)
    let hdastar_row =
      let name = if scale.full then "queen5_5" else "myciel4" in
      let g = graph name in
      let seq, t1 =
        time (fun () ->
            Hd_search.Astar_tw.solve ~within:(within scale) ~seed:1 g)
      in
      let par, t2 =
        time (fun () ->
            Hd_parallel.Hdastar.solve_tw ~sched
              ~within:(within scale)
              ~seed:1 g)
      in
      let notes =
        match (seq.St.outcome, par.Sv.outcome) with
        | St.Exact a, Sv.Exact b ->
            check_same "hdastar" "width" (a = b);
            outcome_string par.Sv.outcome
        | _ -> "budget-capped"
      in
      row ~layer:"hdastar" ~instance:name ~notes
        ~extra:
          [
            ("outcome", Obs.Json.String (outcome_string par.Sv.outcome));
            ("outcome_j1", Obs.Json.String (outcome_string seq.St.outcome));
          ]
        t1 t2
    in
    (* layer "columnar": Yannakakis semijoin/join passes partitioned
       over the scheduler; answers are byte-identical by construction *)
    let columnar_row =
      let module Cq = Hd_query.Cq in
      let module Db = Hd_query.Db in
      let module Y = Hd_query.Yannakakis in
      let n, m = if scale.full then (500, 40_000) else (300, 12_000) in
      let rng = Random.State.make [| 7 |] in
      let db = Db.create () in
      Db.add db ~name:"e"
        (List.init m (fun _ ->
             [|
               Printf.sprintf "v%d" (Random.State.int rng n);
               Printf.sprintf "v%d" (Random.State.int rng n);
             |]));
      let q =
        Cq.parse_string ~source:"bench"
          "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X)."
      in
      let seq, t1 = time (fun () -> Y.run ~mode:Y.Answers db q) in
      let par, t2 = time (fun () -> Y.run ~par:sched ~mode:Y.Answers db q) in
      check_same "columnar" "count" (par.Y.count = seq.Y.count);
      check_same "columnar" "answers" (par.Y.answers = seq.Y.answers);
      row ~layer:"columnar"
        ~instance:(Printf.sprintf "triangle %dv/%de" n m)
        ~notes:(Printf.sprintf "%d answers" par.Y.count)
        ~extra:[ ("answers", Obs.Json.Int par.Y.count) ]
        t1 t2
    in
    (blocks_row, hdastar_row, columnar_row)
  in
  (* layer "portfolio": the original solver race, unchanged semantics *)
  let portfolio_rows =
    List.map
      (fun name ->
        let g = graph name in
        let seq, t1 =
          time (fun () ->
              Hd_parallel.Portfolio.solve_tw ~jobs:1 ~budget:(budget scale)
                ~seed:1 g)
        in
        let par, t2 =
          time (fun () ->
              Hd_parallel.Portfolio.solve_tw ~jobs ~budget:(budget scale)
                ~seed:1 g)
        in
        let winner =
          Option.value par.Hd_parallel.Portfolio.winner ~default:"-"
        in
        row ~layer:"portfolio" ~instance:name
          ~notes:
            (Printf.sprintf "%s  winner %s"
               (outcome_string par.Hd_parallel.Portfolio.outcome)
               winner)
          ~extra:
            [
              ("domains", Obs.Json.Int par.Hd_parallel.Portfolio.domains);
              ("winner", Obs.Json.String winner);
              ( "outcome",
                Obs.Json.String
                  (outcome_string par.Hd_parallel.Portfolio.outcome) );
              ( "outcome_j1",
                Obs.Json.String
                  (outcome_string seq.Hd_parallel.Portfolio.outcome) );
            ]
          t1 t2)
      [ "queen6_6"; "grid6" ]
  in
  let rows = [ blocks_row; hdastar_row; columnar_row ] @ portfolio_rows in
  let scheduler_layers = [ "blocks"; "hdastar"; "columnar" ] in
  let layers_at_speedup =
    List.length
      (List.filter
         (fun l ->
           List.exists (fun ((l', s), _) -> l' = l && s >= 1.5) rows)
         scheduler_layers)
  in
  let enforce = cores >= 4 && jobs >= 4 in
  let speedup_pass = layers_at_speedup >= 2 in
  let determinism_pass = !mismatches = [] in
  Printf.printf
    "\ndeterminism: %s   speedup gate (>=1.5x on >=2 layers): %s%s\n"
    (if determinism_pass then "ok" else "FAIL")
    (if speedup_pass then "pass"
     else Printf.sprintf "%d/2 layers" layers_at_speedup)
    (if enforce then "" else "  [report-only: needs >= 4 cores and -j >= 4]");
  if not determinism_pass then exit_code := 1;
  if enforce && not speedup_pass then exit_code := 1;
  set_parallel_section
    (Obs.Json.Obj
       [
         ("jobs", Obs.Json.Int jobs);
         ("recommended_domains", Obs.Json.Int cores);
         ("layers", Obs.Json.List (List.map snd rows));
         ( "determinism",
           Obs.Json.Obj
             [
               ("pass", Obs.Json.Bool determinism_pass);
               ( "mismatches",
                 Obs.Json.List
                   (List.map (fun m -> Obs.Json.String m) !mismatches) );
             ] );
         ( "gate",
           Obs.Json.Obj
             [
               ("enforced", Obs.Json.Bool enforce);
               ("required_speedup", Obs.Json.Float 1.5);
               ("required_layers", Obs.Json.Int 2);
               ("layers_at_speedup", Obs.Json.Int layers_at_speedup);
               ("pass", Obs.Json.Bool speedup_pass);
             ] );
       ])

(* the default-scale batch below, as last measured through the retired
   row-at-a-time engine (query.hash_probes, query.join_tuples), which
   joined every bag's lambda label as it stood, products included;
   report-only *)
let rows_baseline_probes = 198_890
let rows_baseline_join_tuples = 576_420

(* the same batch on the columnar kernel with connected bag plans
   (query.radix_probes, query.radix_join_tuples): the gate *)
let columnar_baseline_probes = 40_466
let columnar_baseline_join_tuples = 34_038

(* conjunctive-query answering (hd_query): Yannakakis over the
   decomposition stack vs a brute-force evaluator on random digraphs,
   recorded as BENCH_report.json's "query" section (answer counts,
   semijoin reduction ratios, wall times) *)
let query scale =
  header "Query -- Yannakakis over (G)HDs vs brute force (hd_query)";
  let module Cq = Hd_query.Cq in
  let module Db = Hd_query.Db in
  let module Y = Hd_query.Yannakakis in
  let n, m = if scale.full then (120, 900) else (50, 320) in
  let rng = Random.State.make [| 42 |] in
  let db = Db.create () in
  Db.add db ~name:"e"
    (List.init m (fun _ ->
         [|
           Printf.sprintf "v%d" (Random.State.int rng n);
           Printf.sprintf "v%d" (Random.State.int rng n);
         |]));
  Printf.printf "random digraph: %d vertices, %d edge tuples\n\n" n m;
  Printf.printf "%-10s %-7s | %7s %5s %5s | %9s %9s %7s | %9s %7s\n" "query"
    "plan" "answers" "bags" "semij" "tuples" "reduced" "ratio" "yannakakis"
    "brute";
  let queries =
    [
      ("triangle", "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).");
      ("4-cycle", "ans(W,X,Y,Z) :- e(W,X), e(X,Y), e(Y,Z), e(Z,W).");
      ("two-hop", "ans(X,Z) :- e(X,Y), e(Y,Z).");
      ("v-path", "ans(X,Z) :- e(X,Y), e(Z,Y).");
    ]
  in
  let entries =
    List.map
      (fun (name, text) ->
        let q = Cq.parse_string ~source:name text in
        let r, secs = time (fun () -> Y.run ~mode:Y.Answers db q) in
        let bf, bf_secs = time (fun () -> Hd_query.Brute_force.count db q) in
        if bf <> r.Y.count then
          failwith (Printf.sprintf "query %s: %d answers vs %d brute-force"
                      name r.Y.count bf);
        let s = r.Y.stats in
        let ratio =
          if s.Y.tuples_materialized = 0 then 1.0
          else
            float_of_int s.Y.tuples_after_reduction
            /. float_of_int s.Y.tuples_materialized
        in
        let plan =
          if s.Y.acyclic then "gyo" else Printf.sprintf "ghd-w%d" s.Y.width
        in
        Printf.printf
          "%-10s %-7s | %7d %5d %5d | %9d %9d %6.2f%% | %8.3fs %6.3fs\n" name
          plan r.Y.count s.Y.bags s.Y.semijoins s.Y.tuples_materialized
          s.Y.tuples_after_reduction (100.0 *. ratio) secs bf_secs;
        Obs.Json.Obj
          [
            ("query", Obs.Json.String name);
            ("plan", Obs.Json.String plan);
            ("width", Obs.Json.Int s.Y.width);
            ("bags", Obs.Json.Int s.Y.bags);
            ("answers", Obs.Json.Int r.Y.count);
            ("semijoins", Obs.Json.Int s.Y.semijoins);
            ("tuples_materialized", Obs.Json.Int s.Y.tuples_materialized);
            ("tuples_after_reduction", Obs.Json.Int s.Y.tuples_after_reduction);
            ("reduction_ratio", Obs.Json.Float ratio);
            ("seconds", Obs.Json.Float secs);
            ("seconds_brute_force", Obs.Json.Float bf_secs);
          ])
      queries
  in
  (* the per-query sweep above materialized bags on both the acyclic
     and the GHD plan, so the cardinality histograms must have
     observations --
     their absence from BENCH_report.json was a recording bug once *)
  let assert_histogram name =
    let h = Obs.Histogram.make name in
    if Obs.Histogram.count h = 0 then
      failwith (Printf.sprintf "histogram %s is empty in the query experiment"
                  name)
  in
  assert_histogram "query.relation_size";
  assert_histogram "query.bag_size";
  (* batch workload: N conjunctive queries over the one instance on the
     columnar kernel, sharing one decomposition per isomorphism class
     of cyclic query structure -- the hd_query --batch / server "bulk"
     execution strategy.  The row-at-a-time engine this kernel replaced
     is gone; its counts on the default-scale batch are kept as a
     recorded baseline.  The gate is deterministic: at default scale
     the batch may take at most the recorded columnar probes and
     exactly the recorded columnar join tuples; -full only reports.
     Wall time is never gated. *)
  let module Sig = Hd_server.Signature in
  let batch_texts =
    (* renamed isomorphic copies, so plan sharing has real work to do *)
    List.concat
      [
        List.init 6 (fun i ->
            Printf.sprintf "t%d(A,B,C) :- e(A,B), e(B,C), e(C,A)." i);
        List.init 6 (fun i ->
            Printf.sprintf "c%d(W,X,Y,Z) :- e(W,X), e(X,Y), e(Y,Z), e(Z,W)."
              i);
        List.init 4 (fun i -> Printf.sprintf "h%d(X,Z) :- e(X,Y), e(Y,Z)." i);
        List.init 4 (fun i -> Printf.sprintf "v%d(X,Z) :- e(X,Y), e(Z,Y)." i);
      ]
  in
  let batch =
    List.mapi (fun i t -> Cq.parse_string ~source:(Printf.sprintf "b%d" i) t)
      batch_texts
  in
  let nq = List.length batch in
  let counter name = Obs.Counter.value (Obs.Counter.make name) in
  let col_names =
    [
      "query.radix_probes"; "query.radix_join_tuples";
      "query.reduce_semijoins"; "query.selvec_semijoins";
      "query.selvec_kept_rows"; "query.radix_bucket_skips";
      "query.bag_tuples";
    ]
  in
  (* orderings shared per canonical signature, exactly as hd_query
     --batch and the server bulk op do *)
  let orderings : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  let decompositions = ref 0 and shared = ref 0 in
  let before = List.map counter col_names in
  let col_counts, col_secs =
    time (fun () ->
        List.map
          (fun q ->
            let ordering =
              match Cq.hypergraph q with
              | exception Invalid_argument _ -> None
              | h ->
                  if Hd_hypergraph.Acyclicity.is_acyclic h then None
                  else
                    let s = Sig.of_hypergraph h in
                    (match Hashtbl.find_opt orderings (Sig.key s) with
                    | Some canon ->
                        incr shared;
                        Some (Sig.of_canonical s canon)
                    | None ->
                        let sigma =
                          Y.ordering_for ~method_:Y.Auto ~jobs:1 ~seed:42
                            ~time_limit:scale.time_limit h
                        in
                        incr decompositions;
                        Hashtbl.replace orderings (Sig.key s)
                          (Sig.to_canonical s sigma);
                        Some sigma)
            in
            (Y.run ?ordering ~mode:Y.Count db q).Y.count)
          batch)
  in
  let col_deltas =
    List.map2 (fun n (b, a) -> (n, a - b)) col_names
      (List.combine before (List.map counter col_names))
  in
  if List.map (Hd_query.Brute_force.count db) batch <> col_counts then
    failwith "batch workload: columnar and brute-force answer counts differ";
  let probes_col = List.assoc "query.radix_probes" col_deltas in
  let join_tuples = List.assoc "query.radix_join_tuples" col_deltas in
  Printf.printf
    "\nbatch: %d queries (%d decompositions computed, %d shared)\n" nq
    !decompositions !shared;
  Printf.printf "%-10s | %9s %12s %12s\n" "engine" "seconds" "probes"
    "join tuples";
  (* the recorded baseline is for the default-scale batch only *)
  if not scale.full then
    Printf.printf "%-10s | %9s %12d %12d\n" "rows" "recorded"
      rows_baseline_probes rows_baseline_join_tuples;
  Printf.printf "%-10s | %8.3fs %12d %12d\n" "columnar" col_secs probes_col
    join_tuples;
  let gate =
    if scale.full then "report-only"
    else if
      probes_col <= columnar_baseline_probes
      && join_tuples = columnar_baseline_join_tuples
    then "pass"
    else begin
      Printf.printf
        "FAIL: batch probes %d (recorded %d) or join tuples %d (recorded %d) \
         drifted\n"
        probes_col columnar_baseline_probes join_tuples
        columnar_baseline_join_tuples;
      exit_code := 1;
      "fail"
    end
  in
  let json_counts ds = List.map (fun (n, v) -> (n, Obs.Json.Int v)) ds in
  let rows_baseline =
    if scale.full then []
    else
      [
        ( "rows_baseline",
          Obs.Json.Obj
            [
              ("query.hash_probes", Obs.Json.Int rows_baseline_probes);
              ("query.join_tuples", Obs.Json.Int rows_baseline_join_tuples);
            ] );
      ]
  in
  set_query_section
    (Obs.Json.Obj
       [
         ("vertices", Obs.Json.Int n);
         ("edge_tuples", Obs.Json.Int m);
         ("instances", Obs.Json.List entries);
         ( "batch",
           Obs.Json.Obj
             ([
                ("queries", Obs.Json.Int nq);
                ("answers", Obs.Json.Int (List.fold_left ( + ) 0 col_counts));
                ("decompositions", Obs.Json.Int !decompositions);
                ("shared_plans", Obs.Json.Int !shared);
                ( "columnar",
                  Obs.Json.Obj
                    (("seconds", Obs.Json.Float col_secs)
                    :: json_counts col_deltas) );
                ("gate", Obs.Json.String gate);
              ]
             @ rows_baseline) );
       ])

(* monolithic vs decompose-by-blocks solving through the engine: the
   block-splitting payoff on articulation-point chains (and its
   no-regression on biconnected instances), recorded as
   BENCH_report.json's "engine" section *)
let engine scale =
  header "Engine -- monolithic vs decompose-by-blocks";
  Hd_search.Solvers.ensure ();
  Hd_ga.Solvers.ensure ();
  let cases =
    [
      (* biconnected: the split pass must cost nothing *)
      ("queen5_5", "bb-tw");
      ("myciel4", "astar-tw");
      (* articulation-point chains: one hard block repeated *)
      ("blocks2-queen5_5", "bb-tw");
      ("blocks3-grid4", "astar-tw");
    ]
  in
  Printf.printf "%-18s %-10s | %9s %8s | %9s %8s | %7s\n" "instance" "solver"
    "mono" "mono-s" "split" "split-s" "speedup";
  let entries =
    List.map
      (fun (name, solver) ->
        let g = graph name in
        let problem = Hd_engine.Solver.Graph g in
        let run ~blocks =
          Hd_engine.Engine.run_by_name ~blocks ~seed:1 solver
            (Hd_engine.Budget.create ~time_limit:scale.time_limit ())
            problem
        in
        let mono = run ~blocks:false in
        let split = run ~blocks:true in
        let speedup =
          if split.Hd_engine.Solver.elapsed > 0.0 then
            mono.Hd_engine.Solver.elapsed /. split.Hd_engine.Solver.elapsed
          else 1.0
        in
        Printf.printf
          "%-18s %-10s | %9s %7.3fs | %9s %7.3fs | %6.1fx\n" name solver
          (outcome_string mono.Hd_engine.Solver.outcome)
          mono.Hd_engine.Solver.elapsed
          (outcome_string split.Hd_engine.Solver.outcome)
          split.Hd_engine.Solver.elapsed speedup;
        Obs.Json.Obj
          [
            ("instance", Obs.Json.String name);
            ("solver", Obs.Json.String solver);
            ( "monolithic",
              Obs.Json.Obj
                [
                  ( "outcome",
                    Obs.Json.String
                      (outcome_string mono.Hd_engine.Solver.outcome) );
                  ("seconds", Obs.Json.Float mono.Hd_engine.Solver.elapsed);
                ] );
            ( "blocks",
              Obs.Json.Obj
                [
                  ( "outcome",
                    Obs.Json.String
                      (outcome_string split.Hd_engine.Solver.outcome) );
                  ("seconds", Obs.Json.Float split.Hd_engine.Solver.elapsed);
                ] );
            ("speedup", Obs.Json.Float speedup);
          ])
      cases
  in
  set_engine_section (Obs.Json.Obj [ ("instances", Obs.Json.List entries) ])

(* the search and set-cover work of the corpus sweep at the CI scale
   (-states 4000), the same at -j 1 and -j 2: the per-state bounds and
   the greedy cover may get cheaper, but they must leave every expanded
   and generated state, and every cover call, where it was *)
let corpus_gate_states = 4000

let corpus_baseline_counters =
  [
    ("search.nodes_expanded", 6_599);
    ("search.nodes_generated", 58_012);
    ("setcover.exact_calls", 5_674);
    ("setcover.greedy_calls", 18_306);
  ]

(* HyperBench-style corpus sweep (hd_corpus): materialise the bundled
   mini-corpus under _corpus/, race a ghw roster over every instance in
   parallel, and record the width / time / winner table plus the
   ghw<=5 coverage histogram as BENCH_report.json's "corpus" section.
   At -states 4000 the run fails (exit 1) unless the gated counters
   equal the recorded ones.  With -baseline FILE, diff the fresh sweep
   against a previous report and fail the run (exit 3) on width
   regressions or >2x slowdowns. *)
let corpus scale =
  header
    (Printf.sprintf "Corpus -- mini-HyperBench sweep, -j %d, %s" scale.jobs
       (match scale.states with
       | Some n -> Printf.sprintf "%d states/instance (deterministic)" n
       | None -> Printf.sprintf "%.1fs/instance" scale.time_limit));
  let entries = Hd_corpus.Manifest.ensure_all ~root:"_corpus" in
  Printf.printf "materialised %d instances under _corpus/ (collections: %s)\n"
    (List.length entries)
    (String.concat ", " (Hd_corpus.Manifest.bundled_collections ()));
  let counter name = Obs.Counter.value (Obs.Counter.make name) in
  let before = List.map (fun (name, _) -> counter name) corpus_baseline_counters in
  let report =
    Hd_corpus.Sweep.sweep ~jobs:scale.jobs ~budget:(budget scale) ~seed:1
      entries
  in
  let counts =
    List.map2
      (fun (name, recorded) b -> (name, counter name - b, recorded))
      corpus_baseline_counters before
  in
  Hd_corpus.Sweep.print report;
  Printf.printf "\n%s"
    (String.concat ", "
       (List.map (fun (name, n, _) -> Printf.sprintf "%s %d" name n) counts));
  let gate =
    if scale.states <> Some corpus_gate_states then begin
      Printf.printf " (gated at -states %d only)\n" corpus_gate_states;
      "report-only"
    end
    else begin
      Printf.printf " (recorded: %s)\n"
        (String.concat ", "
           (List.map (fun (_, _, r) -> string_of_int r) counts));
      let failures = List.filter (fun (_, n, r) -> n <> r) counts in
      List.iter
        (fun (name, n, r) ->
          Printf.printf "FAIL: %s is %d, recorded %d\n" name n r)
        failures;
      if failures = [] then "pass"
      else begin
        exit_code := 1;
        "fail"
      end
    end
  in
  let section =
    match Hd_corpus.Sweep.to_json report with
    | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (fields
          @ [
              ( "counters",
                Obs.Json.Obj
                  (List.map (fun (name, n, _) -> (name, Obs.Json.Int n)) counts)
              );
              ("gate", Obs.Json.String gate);
            ])
    | _ -> assert false (* a sweep report is an object *)
  in
  set_corpus_section section;
  match scale.baseline with
  | None -> ()
  | Some path -> (
      Printf.printf "\nregression gate: diffing against %s%s\n" path
        (if scale.widths_only then " (widths and exactness only)" else "");
      match
        Hd_corpus.Regression.check_file
          ~check_times:(not scale.widths_only)
          ~baseline_path:path
          (Hd_corpus.Sweep.to_json report)
      with
      | Ok () -> Printf.printf "regression gate: OK, nothing regressed\n"
      | Error failures ->
          Printf.printf "regression gate: %d failure(s)\n"
            (List.length failures);
          List.iter
            (fun f ->
              Format.printf "  %a@." Hd_corpus.Regression.pp_failure f)
            failures;
          exit_code := 3)

(* the fhw and hw columns of the widths experiment at the CI scale
   (-states 3000), the LP pivots they took on the single-phase dual
   simplex (the two-phase primal simplex it replaced took 13,963 for
   the same 901 solves), and det-k's work: the separators it tried
   (fixed: the enumeration prune may only skip subsets that cannot
   cover the connector) and the enumeration steps it walked to find
   them (1,041,894 before the prune).  The widths and the tried
   separators are fixed; pivots and steps may drop, never rise *)
let widths_gate_states = 3000
let widths_baseline_pivots = 7_996
let widths_baseline_separators = 10_416
let widths_baseline_enum_steps = 60_935

let widths_baseline =
  [
    ("csp-synth/grid2d_02", "1*", "1*");
    ("cq-mini/path_02", "1*", "1*");
    ("csp-synth/clique_03", "3/2*", "2*");
    ("cq-mini/cycle_03", "3/2*", "2*");
    ("cq-mini/triangle", "3/2*", "2*");
    ("cq-mini/path_03", "1*", "1*");
    ("cq-mini/star_03", "1*", "1*");
    ("csp-synth/grid3d_02", "4/3*", "2*");
    ("cq-mini/cycle_04", "2*", "2*");
    ("cq-mini/path_04", "1*", "1*");
    ("cq-mini/snowflake_02", "1*", "1*");
    ("cq-mini/square_chord", "3/2*", "2*");
    ("cq-mini/wide_3x4", "3/2*", "2*");
    ("csp-synth/clique_04", "2*", "2*");
    ("cq-mini/cycle_05", "2*", "2*");
    ("cq-mini/star_05", "1*", "1*");
    ("cq-mini/cycle_06", "2*", "2*");
    ("cq-mini/path_06", "1*", "1*");
    ("cq-mini/snowflake_03", "1*", "1*");
    ("cq-mini/grid_2x3", "2*", "2*");
    ("cq-mini/tree_d3", "1*", "1*");
    ("csp-synth/adder_01", "5/3*", "2*");
    ("csp-synth/clique_05", "5/2*", "3*");
    ("csp-synth/grid2d_04", "9/4*", "3*");
    ("cq-mini/cycle_08", "2*", "2*");
    ("cq-mini/wide_4x5", "2*", "2*");
    ("cq-mini/path_08", "1*", "1*");
    ("cq-mini/star_08", "1*", "1*");
    ("csp-synth/clique_06", "3*", "3*");
    ("cq-mini/path_10", "1*", "1*");
    ("cq-mini/grid_3x3", "2*", "2*");
    ("csp-synth/bridge_01", "19/7*", "3*");
    ("cq-mini/wide_5x6", "2*", "2*");
    ("csp-synth/adder_02", "5/3*", "2*");
    ("csp-synth/clique_07", "7/2*", "4*");
    ("csp-synth/clique_08", "4*", "4*");
    ("csp-synth/grid2d_06", "[7/3,7/2]", "4*");
    ("csp-synth/adder_03", "5/3*", "2*");
    ("csp-synth/bridge_02", "19/7*", "3*");
    ("csp-synth/circuit_00", "3*", "3*");
    ("csp-synth/adder_04", "5/3*", "2*");
  ]

(* the full width ladder -- tw / ghw / fhw (exact rational) / hw --
   side by side on the corpus instances with |V| + |E| <= 50, recorded
   as BENCH_report.json's "widths" section (schema hd_lp/widths/3).
   CI smokes this under a -states budget so the numbers are
   machine-independent, and at -states 3000 the run fails (exit 1)
   unless the fhw and hw columns equal the recorded ones, det-k tried
   exactly the recorded separators, and the LP pivots and det-k
   enumeration steps stay at most the recorded counts *)
let widths scale =
  header "Widths -- tw / ghw / fhw / hw ladder on the smallest corpus instances";
  Hd_search.Solvers.ensure ();
  let entries = Hd_corpus.Manifest.ensure_all ~root:"_corpus" in
  let loaded, _skipped = Hd_corpus.Sweep.load entries in
  let smallest =
    let weight h = Hypergraph.n_vertices h + Hypergraph.n_edges h in
    List.sort (fun (_, a) (_, b) -> compare (weight a) (weight b)) loaded
    |> List.filter (fun (_, h) -> weight h <= 50)
  in
  let counter name = Obs.Counter.value (Obs.Counter.make name) in
  let solves_before = counter "lp.solves" and pivots_before = counter "lp.pivots" in
  let separators_before = counter "detk.separators"
  and steps_before = counter "detk.enum_steps" in
  Printf.printf "%-20s %4s %4s | %8s %8s %10s %8s | %8s\n" "instance" "V" "H"
    "tw" "ghw" "fhw" "hw" "time";
  let rows =
    List.map
      (fun ((e : Hd_corpus.Manifest.entry), h) ->
        let problem = Hd_engine.Solver.Hypergraph h in
        let run name =
          Hd_engine.Engine.run_by_name ~seed:1 name
            (within scale)
            problem
        in
        let started = Hd_engine.Clock.now () in
        let tw = run "astar-tw" in
        let ghw = run "bb-ghw" in
        let fhw = Hd_search.Bb_fhw.solve ~within:(within scale) ~seed:1 h in
        let hw = run "hw-det-k" in
        let secs = Hd_engine.Clock.now () -. started in
        let fhw_str, fhw_exact =
          match fhw.Hd_search.Bb_fhw.outcome_q with
          | Hd_search.Bb_fhw.Exact_q q -> (Hd_lp.Rat.to_string q ^ "*", true)
          | Hd_search.Bb_fhw.Bounds_q { lb; ub } ->
              ( Printf.sprintf "[%s,%s]" (Hd_lp.Rat.to_string lb)
                  (Hd_lp.Rat.to_string ub),
                false )
        in
        let hw_str =
          match hw.Hd_engine.Solver.outcome with
          | Hd_engine.Solver.Exact w -> Printf.sprintf "%d*" w
          | Hd_engine.Solver.Bounds _ -> "t/o"
        in
        let name = e.Hd_corpus.Manifest.collection ^ "/" ^ e.Hd_corpus.Manifest.name in
        Printf.printf "%-20s %4d %4d | %8s %8s %10s %8s | %7.2fs\n" name
          (Hypergraph.n_vertices h) (Hypergraph.n_edges h)
          (outcome_string tw.Hd_engine.Solver.outcome)
          (outcome_string ghw.Hd_engine.Solver.outcome)
          fhw_str hw_str secs;
        ( (name, fhw_str, hw_str),
          Obs.Json.Obj
            [
              ("instance", Obs.Json.String name);
              ("vertices", Obs.Json.Int (Hypergraph.n_vertices h));
              ("edges", Obs.Json.Int (Hypergraph.n_edges h));
              ("tw", Obs.Json.String (outcome_string tw.Hd_engine.Solver.outcome));
              ( "ghw",
                Obs.Json.String (outcome_string ghw.Hd_engine.Solver.outcome) );
              ("fhw", Obs.Json.String fhw_str);
              ("fhw_exact", Obs.Json.Bool fhw_exact);
              ("hw", Obs.Json.String hw_str);
              ("seconds", Obs.Json.Float secs);
            ] ))
      smallest
  in
  let solves = counter "lp.solves" - solves_before
  and pivots = counter "lp.pivots" - pivots_before
  and separators = counter "detk.separators" - separators_before
  and steps = counter "detk.enum_steps" - steps_before in
  let columns = List.map fst rows and rows = List.map snd rows in
  Printf.printf "\nlp: %d solves, %d pivots; det-k: %d separators, %d steps"
    solves pivots separators steps;
  let gate =
    if scale.states <> Some widths_gate_states then begin
      Printf.printf " (gated at -states %d only)\n" widths_gate_states;
      "report-only"
    end
    else begin
      Printf.printf
        " (recorded: at most %d pivots; %d separators, at most %d steps)\n"
        widths_baseline_pivots widths_baseline_separators
        widths_baseline_enum_steps;
      let columns_ok =
        List.sort compare columns = List.sort compare widths_baseline
      in
      if not columns_ok then begin
        Printf.printf
          "FAIL: the fhw or hw column differs from the recorded one at\n";
        List.iter
          (fun ((i, f, w) as row) ->
            if not (List.mem row widths_baseline) then
              Printf.printf "  %s: fhw %s, hw %s\n" i f w)
          columns
      end;
      let failures =
        List.filter_map
          (fun (bad, msg) -> if bad then Some msg else None)
          [
            ( pivots > widths_baseline_pivots,
              Printf.sprintf "%d LP pivots, recorded at most %d" pivots
                widths_baseline_pivots );
            ( separators <> widths_baseline_separators,
              Printf.sprintf "det-k tried %d separators, recorded %d"
                separators widths_baseline_separators );
            ( steps > widths_baseline_enum_steps,
              Printf.sprintf "%d det-k enumeration steps, recorded at most %d"
                steps widths_baseline_enum_steps );
          ]
      in
      List.iter (Printf.printf "FAIL: %s\n") failures;
      if columns_ok && failures = [] then "pass"
      else begin
        exit_code := 1;
        "fail"
      end
    end
  in
  set_widths_section
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String "hd_lp/widths/3");
         ("instances", Obs.Json.List rows);
         ( "lp",
           Obs.Json.Obj
             [
               ("lp.solves", Obs.Json.Int solves);
               ("lp.pivots", Obs.Json.Int pivots);
               ("recorded_pivots", Obs.Json.Int widths_baseline_pivots);
             ] );
         ( "detk",
           Obs.Json.Obj
             [
               ("detk.separators", Obs.Json.Int separators);
               ("recorded_separators", Obs.Json.Int widths_baseline_separators);
               ("detk.enum_steps", Obs.Json.Int steps);
               ("recorded_enum_steps", Obs.Json.Int widths_baseline_enum_steps);
             ] );
         ("gate", Obs.Json.String gate);
       ])

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let experiments scale =
  [
    ("table-5.1", fun () -> table_5_1 scale);
    ("table-5.2", fun () -> table_5_2 scale);
    ("table-6.1", fun () -> table_6_1 scale);
    ("table-6.2", fun () -> table_6_2 scale);
    ("table-6.3", fun () -> table_6_3 scale);
    ("table-6.4", fun () -> table_6_4 scale);
    ("table-6.5", fun () -> table_6_5 scale);
    ("table-6.6", fun () -> table_6_6 scale);
    ("table-7.1", fun () -> table_7_1 scale);
    ("table-7.2", fun () -> table_7_2 scale);
    ("table-8.1", fun () -> table_8_1 scale);
    ("table-9.1", fun () -> table_9_1 scale);
    ("figure-2", fun () -> figure_2 ());
    ("extension", fun () ->
        extension_heuristics scale;
        extension_hw scale;
        extension_preprocess scale);
    ("scaling", fun () -> scaling scale);
    ("ordering", fun () -> ordering scale);
    ("engine", fun () -> engine scale);
    ("corpus", fun () -> corpus scale);
    ("widths", fun () -> widths scale);
    ("parallel", fun () -> parallel scale);
    ("query", fun () -> query scale);
    ("micro", fun () -> micro ());
    ( "ablation",
      fun () ->
        ablation_setcover scale;
        ablation_dedup scale;
        ablation_pruning scale;
        ablation_lb scale );
  ]

let () =
  let scale = ref default_scale in
  let chosen = ref [] in
  let rec parse = function
    | [] -> ()
    | "-t" :: v :: rest ->
        scale := { !scale with time_limit = float_of_string v };
        parse rest
    | "-runs" :: v :: rest ->
        scale := { !scale with runs = int_of_string v };
        parse rest
    | "-pop" :: v :: rest ->
        scale := { !scale with population = int_of_string v };
        parse rest
    | "-iters" :: v :: rest ->
        scale := { !scale with iterations = int_of_string v };
        parse rest
    | "-j" :: v :: rest ->
        scale := { !scale with jobs = int_of_string v };
        parse rest
    | "-full" :: rest ->
        scale := { !scale with full = true };
        parse rest
    | "-states" :: v :: rest ->
        scale := { !scale with states = Some (int_of_string v) };
        parse rest
    | "-baseline" :: v :: rest ->
        scale := { !scale with baseline = Some v };
        parse rest
    | "-widths-only" :: rest ->
        scale := { !scale with widths_only = true };
        parse rest
    | name :: rest ->
        chosen := name :: !chosen;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let table = experiments !scale in
  let to_run =
    match !chosen with [] -> List.map fst table | names -> List.rev names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name table with
      | Some f -> record_table name f
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst table));
          exit 2)
    to_run;
  write_bench_report ();
  if !exit_code <> 0 then exit !exit_code
