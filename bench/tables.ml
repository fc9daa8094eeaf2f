(* The paper's evaluation -- Tables 5.1-9.2 and Figure 2 -- plus the
   print-only ablation, micro, extension and scaling experiments.
   Each prints the paper's reported value next to ours (Paper), so the
   shape comparison is immediate; none has a report section or gate. *)

module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Solver = Hd_engine.Solver
module Ga_engine = Hd_ga.Ga_engine
open Harness

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
        time (fun () -> entry "astar-tw" scale (Solver.Graph g))
      in
      let paper_a, paper_q, paper_b =
        match List.find_opt (fun (n, _, _, _) -> n = name) Paper.table_5_1 with
        | Some (_, a, q, b) -> (a, q, b)
        | None -> ("-", "-", "-")
      in
      Printf.printf "%-12s %5d %7d | %4d %4d %10s %7.2fs | %8s %8s %6s\n" name
        (Graph.n g) (Graph.m g) lb ub
        (outcome_string result.Solver.outcome)
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
        time (fun () -> entry "astar-tw" scale (Solver.Graph g))
      in
      Printf.printf "%-8s %5d %5d | %4d %4d %10s %7.2fs | %8s\n" name
        (Graph.n g) (Graph.m g) lb ub
        (outcome_string result.Solver.outcome)
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

(* Tables 6.1-6.5 share one study: every variant -- a label, the
   operators, the rates and the population -- runs [scale.runs] seeded
   GA-tw runs per instance; [~sort] ranks an instance's variants by
   average width, as the operator tables do *)
let ga_study scale ?note ?(sort = false) ~title ~column variants =
  header title;
  Option.iter (Printf.printf "%s\n\n") note;
  Printf.printf "%-12s %-9s | %7s %5s %5s\n" "instance" column "avg" "min"
    "max";
  List.iter
    (fun name ->
      let g = graph name in
      let rows =
        List.map
          (fun (label, crossover, mutation, params, population) ->
            ( label,
              summarise ~runs:scale.runs (fun ~run ->
                  run_ga_tw scale g ~crossover ~mutation ~params ~population
                    ~run) ))
          variants
      in
      let rows =
        if sort then List.sort (fun (_, a) (_, b) -> compare a.avg b.avg) rows
        else rows
      in
      List.iter
        (fun (label, s) ->
          Printf.printf "%-12s %-9s | %7.1f %5d %5d\n" name label s.avg s.min
            s.max)
        rows)
    (ga_study_instances scale)

let pos = Hd_ga.Crossover.POS
let ism = Hd_ga.Mutation.ISM

let table_6_1 scale =
  ga_study scale ~sort:true
    ~title:"Table 6.1 -- GA-tw crossover operators (pc=1.0, pm=0)"
    ~note:
      ("paper ranking: " ^ String.concat " > " Paper.table_6_1_ranking)
    ~column:"op"
    (List.map
       (fun op ->
         ( Hd_ga.Crossover.name op, op, ism,
           { default_params with Ga_engine.mutation_rate = 0.0 },
           scale.population ))
       Hd_ga.Crossover.all)

let table_6_2 scale =
  ga_study scale ~sort:true
    ~title:"Table 6.2 -- GA-tw mutation operators (pc=0, pm=1.0)"
    ~note:
      ("paper ranking: " ^ String.concat " > " Paper.table_6_2_ranking)
    ~column:"op"
    (List.map
       (fun op ->
         ( Hd_ga.Mutation.name op, pos, op,
           {
             default_params with
             Ga_engine.crossover_rate = 0.0;
             mutation_rate = 1.0;
           },
           scale.population ))
       Hd_ga.Mutation.all)

let table_6_3 scale =
  let pc_w, pm_w = Paper.table_6_3_winner in
  ga_study scale
    ~title:"Table 6.3 -- GA-tw mutation x crossover rates (POS/ISM)"
    ~note:(Printf.sprintf "paper winner: pc=%.1f pm=%.1f" pc_w pm_w)
    ~column:"pc/pm"
    (List.concat_map
       (fun pc ->
         List.map
           (fun pm ->
             ( Printf.sprintf "%.1f/%.2f" pc pm, pos, ism,
               {
                 default_params with
                 Ga_engine.crossover_rate = pc;
                 mutation_rate = pm;
               },
               scale.population ))
           [ 0.01; 0.1; 0.3 ])
       [ 0.8; 0.9; 1.0 ])

let table_6_4 scale =
  ga_study scale
    ~title:"Table 6.4 -- GA-tw population sizes (paper: bigger is better)"
    ~column:"pop"
    (List.map
       (fun pop -> (string_of_int pop, pos, ism, default_params, pop))
       [ scale.population / 2; scale.population; scale.population * 2 ])

let table_6_5 scale =
  ga_study scale
    ~title:"Table 6.5 -- tournament selection group sizes (paper: 3-4 best)"
    ~column:"s"
    (List.map
       (fun s ->
         ( string_of_int s, pos, ism,
           { default_params with Ga_engine.tournament_size = s },
           scale.population ))
       [ 2; 3; 4 ])

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
        | Some (_, ub, pm) ->
            incr
              (if s.min < ub then improved
               else if s.min = ub then matched
               else worse);
            (string_of_int ub, string_of_int pm)
        | None -> ("-", "-")
      in
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

let exact_ghw_table title solver scale =
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
      let result, secs =
        time (fun () -> entry solver scale (Solver.Hypergraph h))
      in
      Printf.printf "%-12s %5d %5d | %4d %4d %10s %7.2fs %9d\n" name
        (Hypergraph.n_vertices h) (Hypergraph.n_edges h) lb ub
        (outcome_string result.Solver.outcome)
        secs result.Solver.visited)
    (ghw_instances scale)

let table_8_1 scale =
  exact_ghw_table "Table 8.1/8.2 -- BB-ghw (exact bag covers, tw-ksc-width lb)"
    "bb-ghw" scale

let table_9_1 scale =
  exact_ghw_table "Table 9.1/9.2 -- A*-ghw (best-first, anytime lower bounds)"
    "astar-ghw" scale

(* ------------------------------------------------------------------ *)
(* Figure 2 series: the worked example                                 *)
(* ------------------------------------------------------------------ *)

let figure_2 _ =
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
  let print_solution label = function
    | Some a ->
        Format.printf "%s:@.  " label;
        Array.iteri
          (fun v value ->
            Format.printf "%s=%c " (Hd_csp.Csp.variable_name csp v)
              [| 'a'; 'b'; 'c' |].(value))
          a;
        Format.printf "@."
    | None -> failwith "example 5 is satisfiable"
  in
  print_solution "Figure 2.8: solution from the tree decomposition"
    (Hd_csp.Solver.solve_with_td csp td);
  print_solution "Figure 2.9: solution from the GHD"
    (Hd_csp.Solver.solve_with_ghd csp ghd)

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
        time (fun () -> entry "bb-ghw" scale (Solver.Hypergraph h))
      in
      let greedy, t2 =
        time (fun () -> entry "bb-ghw-greedy" scale (Solver.Hypergraph h))
      in
      Printf.printf "%-12s | %12s %7.2fs | %12s %7.2fs\n" name
        (outcome_string exact.Solver.outcome)
        t1
        (outcome_string greedy.Solver.outcome)
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
        time (fun () -> entry "astar-tw" scale (Solver.Graph g))
      in
      (* the budget has no scheduler: one HDA* worker, which merges
         states with equal eliminated sets *)
      let dedup, t2 =
        time (fun () -> entry "astar-tw-par" scale (Solver.Graph g))
      in
      Printf.printf "%-12s | %10s %9d %7.2fs | %10s %9d %7.2fs\n" name
        (outcome_string plain.Solver.outcome)
        plain.Solver.visited t1
        (outcome_string dedup.Solver.outcome)
        dedup.Solver.visited t2)
    [ "queen5_5"; "queen6_6"; "grid5"; "grid6"; "myciel4" ]

let ablation_pruning scale =
  header "Ablation -- PR2 pruning and simplicial reductions in BB-tw";
  Printf.printf "%-10s | %10s %9s | %10s %9s | %10s %9s\n" "graph" "both"
    "visited" "no PR2" "visited" "no reduce" "visited";
  List.iter
    (fun name ->
      let g = graph name in
      let both = entry "bb-tw" scale (Solver.Graph g) in
      let no_pr2 = entry "bb-tw-nopr2" scale (Solver.Graph g) in
      let no_red = entry "bb-tw-noreduce" scale (Solver.Graph g) in
      Printf.printf "%-10s | %10s %9d | %10s %9d | %10s %9d\n" name
        (outcome_string both.Solver.outcome)
        both.Solver.visited
        (outcome_string no_pr2.Solver.outcome)
        no_pr2.Solver.visited
        (outcome_string no_red.Solver.outcome)
        no_red.Solver.visited)
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

let micro _ =
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
      let ghw = entry "bb-ghw" scale (Solver.Hypergraph h) in
      let fhw =
        let rng = Random.State.make [| 1 |] in
        let sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
        let ws = Hd_core.Eval.of_hypergraph h in
        Hd_lp.Rat.to_string (Hd_core.Eval.fhw_width_q ws sigma)
      in
      Printf.printf "%-12s %4d %4d | %6s %10s %8s %7.2fs\n" name
        (Hypergraph.n_vertices h) (Hypergraph.n_edges h) hw_result
        (outcome_string ghw.Solver.outcome) fhw secs)
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
        time (fun () -> entry "astar-tw" scale (Solver.Graph g))
      in
      let pre, t2 =
        time (fun () -> entry "preprocess-tw" scale (Solver.Graph g))
      in
      let kernel =
        let r =
          Hd_search.Preprocess.reduce
            ~lb:(Hd_bounds.Lower_bounds.treewidth g) g
        in
        Graph.n g - List.length r.Hd_search.Preprocess.eliminated
      in
      Printf.printf "%-12s | %10s %7.2fs | %10s %7.2fs %9d\n" name
        (outcome_string plain.Solver.outcome)
        t1
        (outcome_string pre.Solver.outcome)
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
        time (fun () -> entry "bb-ghw" scale (Solver.Hypergraph h))
      in
      Printf.printf "%-12s %5d %5d | %10s %7.2fs\n" name
        (Hypergraph.n_vertices h) (Hypergraph.n_edges h)
        (outcome_string result.Solver.outcome)
        secs)
    [ "adder_15"; "adder_25"; "adder_50"; "adder_75"; "adder_99";
      "bridge_15"; "bridge_25"; "bridge_50"; "bridge_75"; "bridge_99" ]

let extension scale =
  extension_heuristics scale;
  extension_hw scale;
  extension_preprocess scale

let ablation scale =
  ablation_setcover scale;
  ablation_dedup scale;
  ablation_pruning scale;
  ablation_lb scale
