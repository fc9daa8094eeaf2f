module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Ordering = Hd_core.Ordering
module Crossover = Hd_ga.Crossover
module Mutation = Hd_ga.Mutation
module Ga_engine = Hd_ga.Ga_engine
module Ga_tw = Hd_ga.Ga_tw
module Ga_ghw = Hd_ga.Ga_ghw
module Saiga_ghw = Hd_ga.Saiga_ghw
module Local_search = Hd_ga.Local_search

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a budget whose run stops once the best fitness reaches [target]:
   the target is a lower bound on the budget's incumbent, which closes
   when the run publishes a fitness that low *)
let with_target target =
  Hd_engine.Budget.create ~incumbent:(Hd_core.Incumbent.create ~lb:target ()) ()

(* --- operators preserve permutations --- *)

let perm_gen = QCheck.Gen.(pair (2 -- 20) int)

let prop_crossover_permutation op =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "%s yields a permutation" (Crossover.name op))
    (QCheck.make perm_gen)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let p1 = Ordering.random rng n and p2 = Ordering.random rng n in
      let child = Crossover.apply op rng p1 p2 in
      Ordering.is_permutation child)

let prop_mutation_permutation op =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "%s yields a permutation" (Mutation.name op))
    (QCheck.make perm_gen)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let sigma = Ordering.random rng n in
      Mutation.apply op rng sigma;
      Ordering.is_permutation sigma)

let test_crossover_identical_parents () =
  (* crossing a permutation with itself must reproduce it *)
  let rng = Random.State.make [| 5 |] in
  List.iter
    (fun op ->
      for _ = 1 to 20 do
        let p = Ordering.random rng 12 in
        let child = Crossover.apply op rng p p in
        Alcotest.(check (array int))
          (Crossover.name op ^ " self-cross")
          p child
      done)
    Crossover.all

let test_names_roundtrip () =
  List.iter
    (fun op ->
      check "crossover name roundtrip" true
        (Crossover.of_name (Crossover.name op) = Some op))
    Crossover.all;
  List.iter
    (fun op ->
      check "mutation name roundtrip" true
        (Mutation.of_name (Mutation.name op) = Some op))
    Mutation.all;
  check "unknown crossover" true (Crossover.of_name "nope" = None);
  check "unknown mutation" true (Mutation.of_name "nope" = None)

(* --- engine behaviour --- *)

let small_config ?(population_size = 30) ?(max_iterations = 60) () =
  Ga_engine.default_config ~population_size ~max_iterations ~seed:7 ()

let test_engine_finds_sorted_minimum () =
  (* fitness = number of inversions: minimum 0 at the identity *)
  let inversions sigma =
    let n = Array.length sigma in
    let count = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if sigma.(i) > sigma.(j) then incr count
      done
    done;
    !count
  in
  let config = small_config ~max_iterations:150 () in
  let report =
    Ga_engine.run ~within:(with_target 0) config ~n_genes:8 ~eval:inversions
  in
  check_int "inversion minimum found" 0 report.Ga_engine.best;
  check "witness is identity" true
    (report.Ga_engine.best_individual = Ordering.identity 8)

let test_engine_improvements_monotone () =
  let config = small_config () in
  let g = Graph.grid 4 4 in
  let report = Ga_tw.run config g in
  let fits = List.map snd report.Ga_engine.improvements in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  check "improvements strictly decrease" true (decreasing fits);
  check "evaluations counted" true (report.Ga_engine.evaluations > 0)

let test_ga_tw_known () =
  (* GA fitness is an upper bound and small instances are solved
     exactly *)
  let config = small_config () in
  check_int "path tw 1" 1 (Ga_tw.run config (Graph.path 8)).Ga_engine.best;
  check_int "cycle tw 2" 2 (Ga_tw.run config (Graph.cycle 8)).Ga_engine.best;
  check_int "K5 tw 4" 4 (Ga_tw.run config (Graph.complete 5)).Ga_engine.best;
  check_int "grid3 tw 3" 3 (Ga_tw.run config (Graph.grid 3 3)).Ga_engine.best

let test_ga_tw_decomposition () =
  let config = small_config () in
  let g = Graph.grid 3 3 in
  let report = Ga_tw.run config g in
  let td = Ga_tw.decomposition g report in
  check "decomposition valid" true
    (Hd_core.Tree_decomposition.valid_for_graph g td);
  check_int "decomposition width = fitness" report.Ga_engine.best
    (Hd_core.Tree_decomposition.width td)

let test_ga_ghw_known () =
  let config = small_config () in
  let h = Hypergraph.of_graph (Graph.complete 6) in
  check_int "K6 ghw 3" 3 (Ga_ghw.run config h).Ga_engine.best;
  let acyclic = Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 5 ] ] in
  check_int "acyclic ghw 1" 1 (Ga_ghw.run config acyclic).Ga_engine.best

let test_ga_ghw_decomposition () =
  let config = small_config () in
  let h = Hypergraph.of_graph (Graph.cycle 6) in
  let report = Ga_ghw.run config h in
  let ghd = Ga_ghw.decomposition h report in
  check "ghd valid" true (Hd_core.Ghd.valid h ghd);
  check "exact cover no worse than greedy fitness" true
    (Hd_core.Ghd.width ghd <= report.Ga_engine.best)

let prop_ga_tw_ge_astar =
  QCheck.Test.make ~count:15 ~name:"GA-tw >= exact treewidth"
    QCheck.(make QCheck.Gen.(pair (3 -- 7) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Graph.create n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.float rng 1.0 < 0.5 then Graph.add_edge g u v
        done
      done;
      let exact =
        match (Hd_search.Ordering_search.Tw.astar ~seed:1 g).outcome with
        | Exact w -> w
        | Bounds _ -> -1
      in
      let ga = (Ga_tw.run (small_config ()) g).Ga_engine.best in
      ga >= exact)

let test_saiga () =
  let h = Hypergraph.of_graph (Graph.complete 6) in
  let config =
    Saiga_ghw.default_config ~n_islands:3 ~island_population:20 ~epoch_length:5
      ~max_epochs:8 ()
  in
  let report = Saiga_ghw.run config h in
  check_int "SAIGA K6 ghw 3" 3 report.Saiga_ghw.best;
  check "params adapted in range" true
    (Array.for_all
       (fun p ->
         p.Ga_engine.mutation_rate >= 0.01
         && p.Ga_engine.mutation_rate <= 1.0
         && p.Ga_engine.crossover_rate >= 0.1
         && p.Ga_engine.crossover_rate <= 1.0
         && p.Ga_engine.tournament_size >= 2
         && p.Ga_engine.tournament_size <= 8)
       report.Saiga_ghw.final_params);
  check "witness is permutation" true
    (Ordering.is_permutation report.Saiga_ghw.best_individual)

let test_saiga_target_stops () =
  let h = Hypergraph.create ~n:4 [ [ 0; 1; 2; 3 ] ] in
  let config =
    Saiga_ghw.default_config ~n_islands:2 ~island_population:10
      ~epoch_length:2 ~max_epochs:50 ()
  in
  let report = Saiga_ghw.run ~within:(with_target 1) config h in
  check_int "hits width 1" 1 report.Saiga_ghw.best;
  check "stops early" true (report.Saiga_ghw.epochs <= 2)



let test_engine_time_limit () =
  let config = small_config ~max_iterations:1_000_000 () in
  let slow_eval sigma =
    ignore (Array.fold_left ( + ) 0 sigma);
    Array.length sigma
  in
  let report, elapsed =
    Hd_engine.Clock.time @@ fun () ->
    Ga_engine.run
      ~within:(Hd_engine.Budget.create ~time_limit:0.2 ())
      config ~n_genes:30 ~eval:slow_eval
  in
  check "stopped by time" true (elapsed < 5.0);
  check "ran some iterations" true (report.Ga_engine.iterations > 0)

let test_engine_deterministic () =
  let g = Graph.grid 4 4 in
  let r1 = Ga_tw.run (small_config ()) g in
  let r2 = Ga_tw.run (small_config ()) g in
  check_int "same best" r1.Ga_engine.best r2.Ga_engine.best;
  Alcotest.(check (array int)) "same witness" r1.Ga_engine.best_individual
    r2.Ga_engine.best_individual

let test_operators_tiny () =
  (* size-1 and size-2 permutations never break *)
  let rng = Random.State.make [| 1 |] in
  List.iter
    (fun op ->
      Alcotest.(check (array int))
        (Crossover.name op ^ " singleton")
        [| 0 |]
        (Crossover.apply op rng [| 0 |] [| 0 |]);
      for _ = 1 to 20 do
        let c = Crossover.apply op rng [| 0; 1 |] [| 1; 0 |] in
        check "pair perm" true (Ordering.is_permutation c)
      done)
    Crossover.all;
  List.iter
    (fun op ->
      let s = [| 0 |] in
      Mutation.apply op rng s;
      Alcotest.(check (array int)) (Mutation.name op ^ " singleton") [| 0 |] s)
    Mutation.all

(* --- local search --- *)

let test_sa_known () =
  let config = Local_search.default_config ~max_steps:8000 () in
  check_int "SA path tw 1" 1 (Local_search.sa_tw config (Graph.path 8)).Local_search.best;
  check_int "SA K5 tw 4" 4 (Local_search.sa_tw config (Graph.complete 5)).Local_search.best;
  check_int "SA grid3 tw 3" 3 (Local_search.sa_tw config (Graph.grid 3 3)).Local_search.best;
  let h = Hypergraph.of_graph (Graph.complete 6) in
  check_int "SA K6 ghw 3" 3 (Local_search.sa_ghw config h).Local_search.best

let test_ils () =
  let config = Local_search.default_config ~max_steps:8000 () in
  let g = Graph.grid 4 4 in
  let ws = Hd_core.Eval.of_graph g in
  let report =
    Local_search.iterated_local_search config ~n_genes:16
      ~eval:(Hd_core.Eval.tw_width ws)
  in
  check "ILS finds grid4 tw <= 5" true (report.Local_search.best <= 5);
  check "witness is permutation" true
    (Ordering.is_permutation report.Local_search.best_individual);
  check_int "witness width matches" report.Local_search.best
    (Hd_core.Eval.tw_width ws report.Local_search.best_individual)

let test_sa_target_stops () =
  (* on K5 every ordering has width 4, so the target is met at the
     initial evaluation and no step runs *)
  let config = Local_search.default_config ~max_steps:1_000_000 () in
  let report =
    Local_search.sa_tw ~within:(with_target 4) config (Graph.complete 5)
  in
  check_int "target reached" 4 report.Local_search.best;
  check_int "stopped immediately" 0 report.Local_search.steps

(* --- weighted triangulation objective (Section 4.5) --- *)

let test_weighted_width () =
  let g = Graph.path 3 in
  let ws = Hd_core.Eval.of_graph g in
  (* ordering (1,2,0): bags {0},{2,1},{1,0}...  all domains 2 =>
     weight = log2(sum of 2^|bag|) *)
  let w = Hd_core.Eval.weighted_width ws ~domain_sizes:[| 2; 2; 2 |] [| 1; 2; 0 |] in
  (* bags when eliminating 0 then 2 then 1: {0,1}, {2,1}, {1}:
     4 + 4 + 2 = 10 *)
  Alcotest.(check (float 1e-9)) "weight" (log (float_of_int 10) /. log 2.0) w;
  (* a bad ordering has heavier tables *)
  let bad = Hd_core.Eval.weighted_width ws ~domain_sizes:[| 2; 2; 2 |] [| 0; 2; 1 |] in
  check "middle-first ordering heavier" true (bad > w)

let test_ga_weighted () =
  let g = Graph.grid 3 3 in
  let domain_sizes = Array.make 9 2 in
  let config = small_config () in
  let report = Hd_ga.Ga_tw.run_weighted config g ~domain_sizes in
  check "weighted GA returns permutation" true
    (Ordering.is_permutation report.Ga_engine.best_individual);
  (* optimal width-3 decompositions of grid3 have total table size
     well under 2^7 *)
  check "weight sane" true (report.Ga_engine.best <= 64 * 7)

(* --- suffix re-evaluation --- *)

module Obs = Hd_obs.Obs

let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

let counter name = Obs.Counter.value (Obs.Counter.make name)

let random_graph rng n p =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then Graph.add_edge g u v
    done
  done;
  g

(* The names below say "Suffix_eval" for the suffix-reusing evaluation
   a long-lived Eval workspace performs; "width_full" is a from-scratch
   evaluation on a fresh workspace. *)

(* walk a workspace through a chain of mutated orderings (exercising
   suffix restarts of every depth) and compare every width against an
   independent from-scratch evaluation *)
let prop_suffix_eval_tw =
  QCheck.Test.make ~count:150 ~name:"Suffix_eval tw = Eval.tw_width under mutation"
    QCheck.(make QCheck.Gen.(triple (1 -- 14) int int))
    (fun (n, gseed, seed) ->
      let rng = Random.State.make [| gseed |] in
      let g = random_graph rng n (Random.State.float rng 1.0) in
      let ws = Hd_core.Eval.of_graph g in
      let rng = Random.State.make [| seed |] in
      let sigma = Ordering.random rng n in
      let ok = ref true in
      for _ = 1 to 12 do
        let fresh = Hd_core.Eval.of_graph g in
        ok :=
          !ok
          && Hd_core.Eval.tw_width ws sigma = Hd_core.Eval.tw_width fresh sigma;
        (* mutate in place: a random transposition changes a random
           position, leaving a random-length suffix intact *)
        let i = Random.State.int rng n and j = Random.State.int rng n in
        let t = sigma.(i) in
        sigma.(i) <- sigma.(j);
        sigma.(j) <- t
      done;
      !ok)

let prop_suffix_eval_ghw =
  QCheck.Test.make ~count:100
    ~name:"Suffix_eval ghw = width_full on fresh workspace"
    QCheck.(make QCheck.Gen.(triple (2 -- 10) int int))
    (fun (n, gseed, seed) ->
      let rng = Random.State.make [| gseed |] in
      let edges = ref [] in
      for _ = 1 to max 2 (n / 2) do
        let a = Random.State.int rng n and b = Random.State.int rng n in
        let c = Random.State.int rng n in
        edges := List.sort_uniq compare [ a; b; c ] :: !edges
      done;
      (* cover every vertex so ghw is defined *)
      for v = 0 to n - 1 do
        edges := [ v ] :: !edges
      done;
      let h = Hypergraph.create ~n !edges in
      let ws = Hd_core.Eval.of_hypergraph ~seed:11 h in
      let rng = Random.State.make [| seed |] in
      let sigma = Ordering.random rng n in
      let ok = ref true in
      for _ = 1 to 8 do
        (* per-bag seeded tie-breaking makes the suffix-reusing width
           equal to a from-scratch one on a fresh workspace *)
        let fresh = Hd_core.Eval.of_hypergraph ~seed:11 h in
        ok :=
          !ok
          && Hd_core.Eval.ghw_width ws sigma = Hd_core.Eval.ghw_width fresh sigma;
        let i = Random.State.int rng n and j = Random.State.int rng n in
        let t = sigma.(i) in
        sigma.(i) <- sigma.(j);
        sigma.(j) <- t
      done;
      !ok)

let test_suffix_reeval_counters () =
  with_obs @@ fun () ->
  let g = Graph.grid 5 5 in
  let n = Graph.n g in
  let ws = Hd_core.Eval.of_graph g in
  let sigma = Ordering.identity n in
  let w0 = Hd_core.Eval.tw_width ws sigma in
  check_int "first eval is full" 1 (counter "eval.full_reevals");
  (* change only positions 0 and 1: the suffix 2..n-1 is shared *)
  let sigma' = Array.copy sigma in
  let t = sigma'.(0) in
  sigma'.(0) <- sigma'.(1);
  sigma'.(1) <- t;
  let w1 = Hd_core.Eval.tw_width ws sigma' in
  check "suffix path taken" true (counter "eval.suffix_reevals" > 0);
  let ref_ws = Hd_core.Eval.of_graph g in
  check_int "full width agrees" (Hd_core.Eval.tw_width ref_ws sigma) w0;
  check_int "suffix width agrees" (Hd_core.Eval.tw_width ref_ws sigma') w1

let test_suffix_eval_ga_smoke () =
  with_obs @@ fun () ->
  (* the wired GA must exercise the suffix path and stay correct *)
  let g = Graph.grid 4 4 in
  let config = small_config () in
  let report = Ga_tw.run config g in
  check "GA best individual is a permutation" true
    (Ordering.is_permutation report.Ga_engine.best_individual);
  let ref_ws = Hd_core.Eval.of_graph g in
  check_int "GA best fitness consistent" report.Ga_engine.best
    (Hd_core.Eval.tw_width ref_ws report.Ga_engine.best_individual);
  check "GA run takes suffix path" true (counter "eval.suffix_reevals" > 0)

(* --- trajectory pins of the metaheuristics --- *)

(* Best fitness, evaluation count and trajectory (GA improvements, SA
   steps, SAIGA epochs) of each metaheuristic on the bundled corpus
   instance csp-synth/grid2d_06 with a fixed seed and a small config.
   Recorded before the GA drivers moved onto the one ordering
   evaluator: any drift in the evaluator's set-cover tie policy or its
   suffix reuse changes a fitness and so the whole trajectory. *)
let ga_pins =
  [
    ("ga-tw", "best 7, 1830 evals, improvements 0:9;2:8;29:7, witness deb1a9");
    ("ga-ghw", "best 4, 1830 evals, improvements 0:5;4:4, witness 612f73");
    ("sa-ghw", "best 4, 3001 evals, 3000 steps, witness 6f5b8b");
    ("saiga-ghw", "best 4, 1241 evals, 6 epochs, witness a1dd13");
  ]

let ga_pinned_run name =
  let h =
    Hd_hypergraph.Hg_format.parse_string
      (List.assoc "grid2d_06.hg"
         (List.assoc "csp-synth" (Hd_instances.Mini_corpus.collections ())))
  in
  (* a checksum of the witness permutation: the first individual that
     reached the best fitness *)
  let witness sigma =
    Array.fold_left (fun acc x -> ((acc * 31) + x) land 0xffffff) 0 sigma
  in
  let improvements l =
    String.concat ";" (List.map (fun (i, f) -> Printf.sprintf "%d:%d" i f) l)
  in
  match name with
  | "ga-tw" | "ga-ghw" ->
      let config = small_config () in
      let r =
        if name = "ga-tw" then Ga_tw.run config (Hypergraph.primal h)
        else Ga_ghw.run config h
      in
      Printf.sprintf "best %d, %d evals, improvements %s, witness %06x"
        r.Ga_engine.best r.evaluations
        (improvements r.improvements)
        (witness r.best_individual)
  | "sa-ghw" ->
      let r =
        Local_search.sa_ghw (Local_search.default_config ~max_steps:3000 ~seed:7 ()) h
      in
      Printf.sprintf "best %d, %d evals, %d steps, witness %06x"
        r.Local_search.best r.evaluations r.steps (witness r.best_individual)
  | "saiga-ghw" ->
      let config =
        Saiga_ghw.default_config ~n_islands:2 ~island_population:20
          ~epoch_length:5 ~max_epochs:6 ~seed:7 ()
      in
      let r = Saiga_ghw.run config h in
      Printf.sprintf "best %d, %d evals, %d epochs, witness %06x"
        r.Saiga_ghw.best r.evaluations r.epochs (witness r.best_individual)
  | _ -> Alcotest.failf "no pinned metaheuristic %s" name

let test_ga_pins () =
  List.iter
    (fun (name, pin) ->
      Alcotest.(check string) name pin (ga_pinned_run name))
    ga_pins

let () =
  Alcotest.run "ga"
    [
      ( "operators",
        [
          Alcotest.test_case "self-crossover" `Quick test_crossover_identical_parents;
          Alcotest.test_case "names" `Quick test_names_roundtrip;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            (List.map prop_crossover_permutation Crossover.all
            @ List.map prop_mutation_permutation Mutation.all) );
      ( "engine",
        [
          Alcotest.test_case "sorts permutations" `Quick test_engine_finds_sorted_minimum;
          Alcotest.test_case "monotone improvements" `Quick test_engine_improvements_monotone;
          Alcotest.test_case "time limit" `Quick test_engine_time_limit;
          Alcotest.test_case "deterministic per seed" `Quick test_engine_deterministic;
          Alcotest.test_case "tiny permutations" `Quick test_operators_tiny;
        ] );
      ( "ga-tw",
        [
          Alcotest.test_case "known treewidths" `Quick test_ga_tw_known;
          Alcotest.test_case "decomposition witness" `Quick test_ga_tw_decomposition;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_ga_tw_ge_astar ] );
      ( "ga-ghw",
        [
          Alcotest.test_case "known widths" `Quick test_ga_ghw_known;
          Alcotest.test_case "decomposition witness" `Quick test_ga_ghw_decomposition;
        ] );
      ( "local search",
        [
          Alcotest.test_case "SA known widths" `Quick test_sa_known;
          Alcotest.test_case "ILS" `Quick test_ils;
          Alcotest.test_case "SA target stop" `Quick test_sa_target_stops;
        ] );
      ( "weighted objective",
        [
          Alcotest.test_case "weighted width" `Quick test_weighted_width;
          Alcotest.test_case "weighted GA" `Quick test_ga_weighted;
        ] );
      ( "suffix eval",
        [
          Alcotest.test_case "counters + agreement" `Quick
            test_suffix_reeval_counters;
          Alcotest.test_case "GA smoke via suffix eval" `Quick
            test_suffix_eval_ga_smoke;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_suffix_eval_tw; prop_suffix_eval_ghw ] );
      ( "saiga",
        [
          Alcotest.test_case "self-adaptive islands" `Quick test_saiga;
          Alcotest.test_case "target stop" `Quick test_saiga_target_stops;
        ] );
      ("trajectory", [ Alcotest.test_case "pins" `Quick test_ga_pins ]);
    ]
