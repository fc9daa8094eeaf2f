module Graph = Hd_graph.Graph
module Bitset = Hd_graph.Bitset
module Hypergraph = Hd_hypergraph.Hypergraph
module Ordering = Hd_core.Ordering
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module Eval = Hd_core.Eval
module Heur = Hd_core.Ordering_heuristics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let random_graph rng n p =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then Graph.add_edge g u v
    done
  done;
  g

let example5 () =
  Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 0; 4; 5 ]; [ 2; 3; 4 ] ]

(* --- orderings --- *)

let test_ordering () =
  check "identity" true (Ordering.is_permutation (Ordering.identity 5));
  check "not perm (dup)" false (Ordering.is_permutation [| 0; 0; 2 |]);
  check "not perm (range)" false (Ordering.is_permutation [| 0; 3 |]);
  let rng = Random.State.make [| 1 |] in
  for _ = 1 to 20 do
    check "random perm" true (Ordering.is_permutation (Ordering.random rng 9))
  done;
  let sigma = [| 2; 0; 1 |] in
  Alcotest.(check (array int)) "positions" [| 1; 2; 0 |] (Ordering.positions sigma);
  Alcotest.(check (array int)) "reverse" [| 1; 0; 2 |] (Ordering.reverse sigma)

(* --- tree decompositions --- *)

let test_td_path () =
  (* eliminating a path in identity order gives width 1 *)
  let g = Graph.path 5 in
  let td = Td.of_ordering g (Ordering.identity 5) in
  check_int "path width" 1 (Td.width td);
  check "valid" true (Td.valid_for_graph g td)

let test_td_clique () =
  let g = Graph.complete 4 in
  let td = Td.of_ordering g (Ordering.identity 4) in
  check_int "K4 width" 3 (Td.width td);
  check "valid" true (Td.valid_for_graph g td)

let test_td_cycle_orderings () =
  let g = Graph.cycle 6 in
  let td = Td.of_ordering g (Ordering.identity 6) in
  check_int "C6 width 2" 2 (Td.width td);
  check "valid" true (Td.valid_for_graph g td)

let test_td_structure_checks () =
  let b = Bitset.of_list 3 [ 0 ] in
  check "two roots rejected" true
    (try
       ignore (Td.make ~bags:[| b; b |] ~parent:[| -1; -1 |]);
       false
     with Invalid_argument _ -> true);
  check "cycle rejected" true
    (try
       ignore (Td.make ~bags:[| b; b; b |] ~parent:[| -1; 2; 1 |]);
       false
     with Invalid_argument _ -> true)

let test_td_invalid_decomposition () =
  let g = Graph.path 3 in
  (* bags violate connectedness: vertex 0 appears in two disconnected
     nodes *)
  let bags = [| Bitset.of_list 3 [ 0; 1 ]; Bitset.of_list 3 [ 1; 2 ]; Bitset.of_list 3 [ 0 ] |] in
  let td = Td.make ~bags ~parent:[| -1; 0; 1 |] in
  check "connectedness violated" false (Td.valid_for_graph g td);
  (* missing edge coverage *)
  let bags2 = [| Bitset.of_list 3 [ 0; 1 ]; Bitset.of_list 3 [ 2 ] |] in
  let td2 = Td.make ~bags:bags2 ~parent:[| -1; 0 |] in
  check "edge uncovered" false (Td.valid_for_graph g td2)

let test_td_disconnected_graph () =
  let g = Graph.create 6 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 3 4;
  (* vertices 2 and 5 isolated *)
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 20 do
    let sigma = Ordering.random rng 6 in
    let td = Td.of_ordering g sigma in
    check "valid on disconnected" true (Td.valid_for_graph g td)
  done

let prop_td_of_ordering_valid =
  QCheck.Test.make ~count:200 ~name:"of_ordering yields valid TD"
    QCheck.(make QCheck.Gen.(triple (1 -- 10) int int))
    (fun (n, seed, pseed) ->
      let rng = Random.State.make [| seed; pseed |] in
      let g = random_graph rng n (Random.State.float rng 1.0) in
      let sigma = Ordering.random rng n in
      let td = Td.of_ordering g sigma in
      Td.valid_for_graph g td)

let prop_eval_matches_td =
  QCheck.Test.make ~count:200 ~name:"Eval.tw_width = width of built TD"
    QCheck.(make QCheck.Gen.(triple (1 -- 10) int int))
    (fun (n, seed, pseed) ->
      let rng = Random.State.make [| seed; pseed |] in
      let g = random_graph rng n (Random.State.float rng 1.0) in
      let ws = Eval.of_graph g in
      let ok = ref true in
      for _ = 1 to 5 do
        let sigma = Ordering.random rng n in
        let td = Td.of_ordering g sigma in
        if Eval.tw_width ws sigma <> Td.width td then ok := false
      done;
      !ok)

(* One workspace walked through a chain of swap and insertion
   mutations, with the objectives interleaved on it: every call must
   equal the same call on a fresh workspace, whatever checkpoint it
   resumed from or whichever objective recorded the last ones. *)
let prop_eval_reuse_matches_fresh =
  QCheck.Test.make ~count:150 ~name:"Eval reused = fresh"
    QCheck.(make QCheck.Gen.(triple (1 -- 12) int int))
    (fun (n, gseed, seed) ->
      let rng = Random.State.make [| gseed |] in
      let edges =
        List.init (1 + Random.State.int rng n) (fun _ ->
            List.init (1 + Random.State.int rng 4) (fun _ ->
                Random.State.int rng n))
        @ List.init n (fun v -> [ v ])
      in
      let h = Hypergraph.create ~n edges in
      let g = Hypergraph.primal h in
      (* two weightings: a checkpoint of one must not serve the other *)
      let weights =
        Array.init 2 (fun _ -> Array.init n (fun _ -> 1 + Random.State.int rng 3))
      in
      let ws = Eval.of_hypergraph ~seed:11 h in
      let agree sigma objective =
        let fresh = Eval.of_hypergraph ~seed:11 h in
        match objective with
        | 0 ->
            let w = Eval.tw_width ws sigma in
            w = Eval.tw_width fresh sigma
            && w = Td.width (Td.of_ordering g sigma)
        | 1 -> Eval.ghw_width ws sigma = Eval.ghw_width fresh sigma
        | 2 -> Eval.ghw_width_exact ws sigma = Eval.ghw_width_exact fresh sigma
        | 3 ->
            Hd_lp.Rat.equal (Eval.fhw_width_q ws sigma)
              (Eval.fhw_width_q fresh sigma)
        | k ->
            let domain_sizes = weights.(k - 4) in
            Eval.weighted_width ws ~domain_sizes sigma
            = Eval.weighted_width fresh ~domain_sizes sigma
      in
      let rng = Random.State.make [| seed |] in
      let sigma = Ordering.random rng n in
      let ok = ref true in
      for _ = 1 to 12 do
        (* a swap or an insertion at random positions keeps a
           random-length suffix *)
        let i = Random.State.int rng n and j = Random.State.int rng n in
        (if Random.State.bool rng then begin
           let x = sigma.(i) in
           sigma.(i) <- sigma.(j);
           sigma.(j) <- x
         end
         else
           let x = sigma.(i) in
           if i < j then Array.blit sigma (i + 1) sigma i (j - i)
           else Array.blit sigma j sigma (j + 1) (i - j);
           sigma.(j) <- x);
        (* one or two objectives per ordering: a repeat of the last
           objective resumes, a switch starts from the base graph *)
        for _ = 1 to 1 + Random.State.int rng 2 do
          ok := !ok && agree sigma (Random.State.int rng 6)
        done
      done;
      !ok)

(* --- generalized hypertree decompositions --- *)

let test_ghd_example5 () =
  (* Figure 2.7 exhibits a width-2 GHD for example 5; exact covering of
     a good ordering must reach 2 *)
  let h = example5 () in
  let best = ref max_int in
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 50 do
    let sigma = Ordering.random rng 6 in
    let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
    check "ghd valid" true (Ghd.valid h ghd);
    best := min !best (Ghd.width ghd)
  done;
  check_int "width 2 reachable" 2 !best

let test_ghd_acyclic_width_1 () =
  (* an acyclic hypergraph (a join tree exists) has ghw 1; a path of
     overlapping hyperedges is acyclic *)
  let h = Hypergraph.create ~n:5 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ] in
  let best = ref max_int in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 30 do
    let sigma = Ordering.random rng 5 in
    let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
    best := min !best (Ghd.width ghd)
  done;
  check_int "acyclic ghw 1" 1 !best

let prop_ghd_valid =
  QCheck.Test.make ~count:100 ~name:"of_ordering yields valid GHD"
    QCheck.(make QCheck.Gen.(pair (2 -- 8) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = 1 + Random.State.int rng 6 in
      let edges =
        List.init m (fun _ ->
            List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng n))
      in
      (* ensure coverage *)
      let edges = edges @ [ List.init n Fun.id ] in
      let h = Hypergraph.create ~n edges in
      let sigma = Ordering.random rng n in
      let greedy = Ghd.of_ordering h sigma ~cover:(`Greedy (Some rng)) in
      let exact = Ghd.of_ordering h sigma ~cover:`Exact in
      Ghd.valid h greedy && Ghd.valid h exact
      && Ghd.width exact <= Ghd.width greedy)

let prop_eval_ghw_matches =
  QCheck.Test.make ~count:100 ~name:"Eval.ghw_width_exact = width of exact GHD"
    QCheck.(make QCheck.Gen.(pair (2 -- 8) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = 1 + Random.State.int rng 5 in
      let edges =
        List.init m (fun _ ->
            List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng n))
        @ [ List.init n Fun.id ]
      in
      let h = Hypergraph.create ~n edges in
      let ws = Eval.of_hypergraph h in
      let sigma = Ordering.random rng n in
      let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
      Eval.ghw_width_exact ws sigma = Ghd.width ghd)

(* --- heuristics --- *)

let test_heuristics_tree () =
  (* min-degree and min-fill find width 1 on trees *)
  let g = Graph.create 7 in
  List.iter
    (fun (u, v) -> Graph.add_edge g u v)
    [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5); (2, 6) ];
  let rng = Random.State.make [| 11 |] in
  let ws = Eval.of_graph g in
  check_int "min_fill tree" 1 (Eval.tw_width ws (Heur.min_fill rng g));
  check_int "min_degree tree" 1 (Eval.tw_width ws (Heur.min_degree rng g))

let test_mcs_chordal () =
  (* on a chordal graph MCS yields a perfect elimination ordering:
     width = clique number - 1.  Build two triangles sharing an edge. *)
  let g = Graph.create 4 in
  List.iter
    (fun (u, v) -> Graph.add_edge g u v)
    [ (0, 1); (1, 2); (0, 2); (1, 3); (2, 3) ];
  let rng = Random.State.make [| 13 |] in
  let ws = Eval.of_graph g in
  check_int "mcs chordal exact" 2 (Eval.tw_width ws (Heur.max_cardinality rng g))

let test_best_of () =
  let g = Graph.grid 3 3 in
  let rng = Random.State.make [| 17 |] in
  let ws = Eval.of_graph g in
  let sigma, w = Heur.best_of rng g ~trials:3 ~eval:(Eval.tw_width ws) in
  check "perm" true (Ordering.is_permutation sigma);
  check_int "3x3 grid min-fill reaches 3" 3 w


let test_fhw_clique () =
  (* fhw of K6 via any ordering: the largest bag is all 6 vertices,
     rho* = 3; smaller bags stay below *)
  let h = Hypergraph.of_graph (Graph.complete 6) in
  let ws = Eval.of_hypergraph h in
  let fhw = Eval.fhw_width_q ws (Ordering.identity 6) in
  check "K6 fhw" true (Hd_lp.Rat.equal fhw (Hd_lp.Rat.of_int 3))

let prop_fhw_le_ghw =
  QCheck.Test.make ~count:60 ~name:"fhw_width <= ghw_width_exact"
    QCheck.(make QCheck.Gen.(pair (2 -- 7) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = 1 + Random.State.int rng 5 in
      let edges =
        List.init m (fun _ ->
            List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng n))
        @ [ List.init n Fun.id ]
      in
      let h = Hypergraph.create ~n edges in
      let ws = Eval.of_hypergraph h in
      let sigma = Ordering.random rng n in
      Hd_lp.Rat.compare_int (Eval.fhw_width_q ws sigma)
        (Eval.ghw_width_exact ws sigma)
      <= 0)



let prop_heuristics_permutations =
  QCheck.Test.make ~count:100 ~name:"heuristic orderings are permutations"
    QCheck.(make QCheck.Gen.(pair (1 -- 12) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = random_graph rng n 0.4 in
      Ordering.is_permutation (Heur.min_fill rng g)
      && Ordering.is_permutation (Heur.min_degree rng g)
      && Ordering.is_permutation (Heur.max_cardinality rng g))


let test_td_io_roundtrip () =
  let g = Graph.grid 3 3 in
  let td = Td.of_ordering g (Ordering.identity 9) in
  let text = Hd_core.Td_io.to_string ~n_vertices:9 td in
  let td2 = Hd_core.Td_io.parse_string text in
  check "roundtrip valid" true (Td.valid_for_graph g td2);
  check_int "roundtrip width" (Td.width td) (Td.width td2);
  check_int "roundtrip nodes" (Td.n_nodes td) (Td.n_nodes td2)

let test_td_io_parse_errors () =
  check "missing header" true
    (try
       ignore (Hd_core.Td_io.parse_string "b 1 1 2\n");
       false
     with Failure _ -> true);
  check "disconnected" true
    (try
       ignore (Hd_core.Td_io.parse_string "s td 2 1 2\nb 1 1\nb 2 2\n");
       false
     with Failure _ -> true)

(* a witness written for another instance is reported, never indexed
   into the instance: a 3-vertex .td against grid3, a 9-vertex .ghd
   against adder_15, and the same .ghd against a 9-vertex instance with
   fewer hyperedges than its labels name *)
let test_td_io_mismatch () =
  let mismatch h td ~lambda = Hd_core.Td_io.mismatch h td ~lambda <> None in
  let grid3 = Hypergraph.of_graph (Graph.grid 3 3) in
  let small = Hd_core.Td_io.parse_string "s td 1 1 3\nb 1 1\n" in
  check "3-vertex td vs grid3" true (mismatch grid3 small ~lambda:[||]);
  let ghd =
    Hd_core.Ghd_io.parse_string
      (Hd_core.Ghd_io.to_string ~n_vertices:9
         ~n_edges:(Hypergraph.n_edges grid3)
         (Ghd.of_ordering grid3 (Ordering.identity 9) ~cover:`Exact))
  in
  let lambda = ghd.Ghd.lambda in
  check "grid3 ghd vs grid3" false (mismatch grid3 ghd.Ghd.td ~lambda);
  let adder = Option.get (Hd_instances.Hypergraphs.by_name "adder_15") in
  check "9-vertex ghd vs adder_15" true (mismatch adder ghd.Ghd.td ~lambda);
  let one_edge = Hypergraph.create ~n:9 [ List.init 9 Fun.id ] in
  check "labels past the instance's hyperedges" true
    (mismatch one_edge ghd.Ghd.td ~lambda)

let prop_td_io_roundtrip =
  QCheck.Test.make ~count:80 ~name:"PACE roundtrip preserves the decomposition"
    QCheck.(make QCheck.Gen.(triple (1 -- 10) int int))
    (fun (n, seed, pseed) ->
      let rng = Random.State.make [| seed; pseed |] in
      let g = random_graph rng n (Random.State.float rng 1.0) in
      let td = Td.of_ordering g (Ordering.random rng n) in
      let td2 = Hd_core.Td_io.parse_string (Hd_core.Td_io.to_string ~n_vertices:n td) in
      Td.valid_for_graph g td2 && Td.width td2 = Td.width td)

(* byte mutants (test/mutants) of valid .td and .ghd texts, and of
   their line-level variants (each line duplicated, each line deleted,
   so the duplicate-header and disconnected-bag paths stay in reach):
   each either parses or is rejected with a Failure naming a line or a
   bag *)
let prop_io_mutations_located =
  let rng = Random.State.make [| 5 |] in
  let line_variants text =
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let n = Array.length lines in
    let without i = List.filteri (fun j _ -> j <> i) (Array.to_list lines) in
    let twice i =
      List.concat (List.init n (fun j -> if j = i then [ lines.(j); lines.(j) ] else [ lines.(j) ]))
    in
    text
    :: List.concat_map
         (fun i -> [ String.concat "\n" (without i); String.concat "\n" (twice i) ])
         (List.init n Fun.id)
  in
  let seeds ghd =
    List.concat_map line_variants
    @@ List.map
      (fun n ->
        let sigma = Ordering.random rng n in
        if ghd then
          let h =
            Hypergraph.create ~n
              (List.init (1 + Random.State.int rng 4) (fun _ ->
                   List.init (1 + Random.State.int rng 3) (fun _ ->
                       Random.State.int rng n))
              @ [ List.init n Fun.id ])
          in
          Hd_core.Ghd_io.to_string ~n_vertices:n ~n_edges:(Hypergraph.n_edges h)
            (Ghd.of_ordering h sigma ~cover:`Exact)
        else
          Hd_core.Td_io.to_string ~n_vertices:n
            (Td.of_ordering (random_graph rng n 0.4) sigma))
      [ 1; 3; 5; 7 ]
  in
  let td_seeds = seeds false and ghd_seeds = seeds true in
  let grammar = "sbltdgh c-0123479 \n" in
  QCheck.Test.make ~count:2000
    ~name:"mutated .td/.ghd: parse or Failure naming line or bag"
    (QCheck.make
       ~print:(fun (ghd, text) -> Printf.sprintf "%s %S" (if ghd then "ghd" else "td") text)
       QCheck.Gen.(
         bool >>= fun ghd ->
         map (fun text -> (ghd, text))
           (Mutants.gen ~grammar (if ghd then ghd_seeds else td_seeds))))
    (fun (ghd, mutated) ->
      let located msg =
        let has sub =
          let n = String.length sub in
          let rec at i =
            i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1))
          in
          at 0
        in
        has "line " || has "bag "
      in
      match
        if ghd then ignore (Hd_core.Ghd_io.parse_string mutated)
        else ignore (Hd_core.Td_io.parse_string mutated)
      with
      | () -> true
      | exception Failure msg -> located msg)

(* --- simplification and export --- *)

let test_simplify_path () =
  (* bucket elimination on a path makes one bag per vertex; half are
     subsets of their neighbour and vanish *)
  let g = Graph.path 6 in
  let td = Td.of_ordering g (Ordering.identity 6) in
  let small = Td.simplify td in
  check "still valid" true (Td.valid_for_graph g small);
  check_int "width preserved" (Td.width td) (Td.width small);
  check "fewer nodes" true (Td.n_nodes small < Td.n_nodes td);
  (* idempotent *)
  check_int "idempotent" (Td.n_nodes small) (Td.n_nodes (Td.simplify small))

let prop_simplify_sound =
  QCheck.Test.make ~count:150 ~name:"simplify preserves validity and width"
    QCheck.(make QCheck.Gen.(triple (1 -- 10) int int))
    (fun (n, seed, pseed) ->
      let rng = Random.State.make [| seed; pseed |] in
      let g = random_graph rng n (Random.State.float rng 1.0) in
      let td = Td.of_ordering g (Ordering.random rng n) in
      let small = Td.simplify td in
      Td.valid_for_graph g small
      && Td.width small = Td.width td
      && Td.n_nodes small <= Td.n_nodes td)

(* --- incremental heuristics vs the naive reference --- *)

module Obs = Hd_obs.Obs

let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

let counter name = Obs.Counter.value (Obs.Counter.make name)

let same_ordering seed g heur naive =
  let a = heur (Random.State.make [| seed |]) g in
  let b = naive (Random.State.make [| seed |]) g in
  a = b

let prop_incremental_min_fill_identical =
  QCheck.Test.make ~count:120
    ~name:"incremental min_fill byte-identical to Naive"
    QCheck.(make QCheck.Gen.(triple (1 -- 14) int int))
    (fun (n, gseed, seed) ->
      let rng = Random.State.make [| gseed |] in
      let g = random_graph rng n (Random.State.float rng 1.0) in
      same_ordering seed g Heur.min_fill Heur.Naive.min_fill)

let prop_incremental_min_degree_identical =
  QCheck.Test.make ~count:120
    ~name:"incremental min_degree byte-identical to Naive"
    QCheck.(make QCheck.Gen.(triple (1 -- 14) int int))
    (fun (n, gseed, seed) ->
      let rng = Random.State.make [| gseed |] in
      let g = random_graph rng n (Random.State.float rng 1.0) in
      same_ordering seed g Heur.min_degree Heur.Naive.min_degree)

let test_incremental_identical_instances () =
  (* the bundled named instances, where structure is less uniform than
     G(n,p) *)
  List.iter
    (fun name ->
      match Hd_instances.Graphs.by_name name with
      | None -> Alcotest.failf "unknown instance %s" name
      | Some g ->
          check
            (name ^ " min_fill identical")
            true
            (same_ordering 7 g Heur.min_fill Heur.Naive.min_fill);
          check
            (name ^ " min_degree identical")
            true
            (same_ordering 7 g Heur.min_degree Heur.Naive.min_degree))
    [ "myciel4"; "queen5_5"; "grid6" ]

let test_dirty_set_counters () =
  with_obs @@ fun () ->
  (* on a sparse graph the dirty-set maintenance must recompute far
     fewer keys than the naive n^2/2 rescans, and must actually skip
     clean vertices *)
  let g = Graph.grid 10 10 in
  let n = Graph.n g in
  ignore (Heur.min_fill (Random.State.make [| 3 |]) g);
  let recomputes = counter "ordering.key_recomputes" in
  let skips = counter "ordering.dirty_skips" in
  check "some keys recomputed" true (recomputes > 0);
  check "clean vertices skipped" true (skips > 0);
  check
    (Printf.sprintf "recomputes %d below naive n^2/2 = %d" recomputes
       (n * n / 2))
    true
    (recomputes < (n * n / 2))

let test_setcover_memo_hits () =
  with_obs @@ fun () ->
  let h = example5 () in
  let ws = Eval.of_hypergraph h in
  (* 5 and 3 are not adjacent, so eliminating them in either order
     yields the same bags; sigma' shares every bag of sigma but no
     suffix, so its evaluation cannot resume and must price each bag
     through the memo *)
  let sigma = [| 0; 1; 2; 4; 3; 5 |] and sigma' = [| 0; 1; 2; 4; 5; 3 |] in
  let w1 = Eval.ghw_width ws sigma in
  let misses_after_first = counter "setcover.memo_misses" in
  let w2 = Eval.ghw_width ws sigma' in
  check_int "memoised width unchanged" w1 w2;
  check "first eval misses" true (misses_after_first > 0);
  check_int "second eval starts from the base graph" 2
    (counter "eval.full_reevals");
  check "second eval hits" true (counter "setcover.memo_hits" > 0);
  check_int "second eval adds no misses" misses_after_first
    (counter "setcover.memo_misses");
  check_int "memoised width again" w1 (Eval.ghw_width ws sigma');
  check_int "a repeat resumes from a checkpoint" 1
    (counter "eval.suffix_reevals")

let test_memo_no_integral_frac_collision () =
  (* regression: integral and fractional cover costs must live in
     separate memo tables.  On the triangle the bag {0,1,2} costs 2
     integral edges but only 3/2 fractionally — a shared table keyed
     on the bag alone would let whichever mode ran first poison the
     other.  Interleave the two modes on one workspace and re-check. *)
  with_obs @@ fun () ->
  let h = Hypergraph.create ~n:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
  let ws = Eval.of_hypergraph h in
  let sigma = Ordering.identity 3 in
  let half3 = Hd_lp.Rat.make 3 2 in
  check_int "ghw first" 2 (Eval.ghw_width_exact ws sigma);
  check "fhw after ghw" true
    (Hd_lp.Rat.equal half3 (Eval.fhw_width_q ws sigma));
  check_int "ghw after fhw (memoised)" 2 (Eval.ghw_width_exact ws sigma);
  check "fhw again (memoised)" true
    (Hd_lp.Rat.equal half3 (Eval.fhw_width_q ws sigma));
  let misses = counter "lp.memo_misses" in
  check "fractional memo populated" true (misses > 0);
  ignore (Eval.fhw_width_q ws sigma);
  check "repeat fhw hits the fractional memo" true
    (counter "lp.memo_hits" > 0);
  check_int "repeat fhw adds no misses" misses (counter "lp.memo_misses")

let () =
  Alcotest.run "core"
    [
      ("ordering", [ Alcotest.test_case "permutations" `Quick test_ordering ]);
      ( "tree decomposition",
        [
          Alcotest.test_case "path" `Quick test_td_path;
          Alcotest.test_case "clique" `Quick test_td_clique;
          Alcotest.test_case "cycle" `Quick test_td_cycle_orderings;
          Alcotest.test_case "structure checks" `Quick test_td_structure_checks;
          Alcotest.test_case "invalid decompositions" `Quick test_td_invalid_decomposition;
          Alcotest.test_case "disconnected graphs" `Quick test_td_disconnected_graph;
        ] );
      ( "ghd",
        [
          Alcotest.test_case "example 5 width 2" `Quick test_ghd_example5;
          Alcotest.test_case "acyclic width 1" `Quick test_ghd_acyclic_width_1;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "trees" `Quick test_heuristics_tree;
          Alcotest.test_case "mcs on chordal" `Quick test_mcs_chordal;
          Alcotest.test_case "best_of" `Quick test_best_of;
        ] );
      ( "incremental heuristics",
        [
          Alcotest.test_case "bundled instances identical" `Quick
            test_incremental_identical_instances;
          Alcotest.test_case "dirty-set counters" `Quick test_dirty_set_counters;
          Alcotest.test_case "set-cover memo" `Quick test_setcover_memo_hits;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_incremental_min_fill_identical;
              prop_incremental_min_degree_identical;
            ] );
      ( "fractional",
        [
          Alcotest.test_case "K6 fhw" `Quick test_fhw_clique;
          Alcotest.test_case "integral/fractional memo separation" `Quick
            test_memo_no_integral_frac_collision;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "path" `Quick test_simplify_path;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_simplify_sound ] );
      ( "pace io",
        [
          Alcotest.test_case "roundtrip" `Quick test_td_io_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_td_io_parse_errors;
          Alcotest.test_case "foreign witness" `Quick test_td_io_mismatch;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_td_io_roundtrip; prop_io_mutations_located ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_td_of_ordering_valid;
            prop_eval_matches_td;
            prop_eval_reuse_matches_fresh;
            prop_ghd_valid;
            prop_eval_ghw_matches;
            prop_fhw_le_ghw;
            prop_heuristics_permutations;
          ] );
    ]
