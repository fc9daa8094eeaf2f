module Hypergraph = Hd_hypergraph.Hypergraph
module Set_cover = Hd_setcover.Set_cover
module Bitset = Hd_graph.Bitset
module Fractional = Hd_setcover.Fractional

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let problem ~n ~edges ~universe =
  {
    Set_cover.universe = Bitset.of_list n universe;
    hypergraph = Hypergraph.create ~n edges;
  }

let test_greedy_simple () =
  let p =
    problem ~n:6
      ~edges:[ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 5 ]; [ 0; 5 ] ]
      ~universe:[ 0; 1; 2; 3; 4; 5 ]
  in
  let chosen = Set_cover.greedy p in
  check "covers" true (Set_cover.is_cover p chosen);
  check_int "greedy optimal here" 2 (List.length chosen)

let test_exact_beats_greedy () =
  (* the classical greedy trap: greedy picks the big middle set and
     needs 3, the optimum is 2 *)
  let p =
    problem ~n:8
      ~edges:[ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 2; 3; 4; 5; 6 ] ]
      ~universe:[ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let exact = Set_cover.exact p in
  check "exact covers" true (Set_cover.is_cover p exact);
  check_int "exact size" 2 (List.length exact)

let test_empty_universe () =
  let p = problem ~n:3 ~edges:[ [ 0; 1 ] ] ~universe:[] in
  check_int "greedy empty" 0 (List.length (Set_cover.greedy p));
  check_int "exact empty" 0 (List.length (Set_cover.exact p))

let test_uncoverable () =
  let p = problem ~n:3 ~edges:[ [ 0 ] ] ~universe:[ 0; 2 ] in
  check "greedy raises" true
    (try
       ignore (Set_cover.greedy p);
       false
     with Invalid_argument _ -> true)

let test_lower_bound () =
  check_int "ceil(7/3)" 3
    (Set_cover.cover_size_lower_bound ~universe_size:7 ~max_set_size:3);
  check_int "exact fit" 2
    (Set_cover.cover_size_lower_bound ~universe_size:6 ~max_set_size:3);
  check_int "empty" 0
    (Set_cover.cover_size_lower_bound ~universe_size:0 ~max_set_size:3)

let test_cache () =
  (* the exact searches' cover memo: one entry per bag content *)
  let cache = Hd_core.Eval.Bag_tbl.create 8 in
  let p =
    problem ~n:4 ~edges:[ [ 0; 1 ]; [ 2; 3 ]; [ 1; 2 ] ] ~universe:[ 0; 1; 2; 3 ]
  in
  let size () =
    Hd_core.Eval.exact_memoized cache p.hypergraph (Bitset.copy p.universe)
  in
  let s1 = size () in
  let s2 = size () in
  check_int "stable" s1 s2;
  check_int "exact" (Set_cover.exact_size p) s1;
  check_int "cached entries" 1 (Hd_core.Eval.Bag_tbl.length cache)

(* brute force optimum for small instances *)
let brute_force p m =
  let best = ref max_int in
  for mask = 0 to (1 lsl m) - 1 do
    let chosen = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init m Fun.id) in
    if Set_cover.is_cover p chosen then
      best := min !best (List.length chosen)
  done;
  !best

let prop_exact_optimal =
  QCheck.Test.make ~count:150 ~name:"exact matches brute force"
    QCheck.(make QCheck.Gen.(pair (1 -- 7) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = 1 + Random.State.int rng 6 in
      let edges =
        List.init m (fun _ ->
            let size = 1 + Random.State.int rng 3 in
            List.init size (fun _ -> Random.State.int rng n))
      in
      let h = Hypergraph.create ~n edges in
      (* universe: only coverable vertices *)
      let universe =
        List.filter (fun v -> Hypergraph.incident h v <> []) (List.init n Fun.id)
      in
      let p = { Set_cover.universe = Bitset.of_list n universe; hypergraph = h } in
      let exact = Set_cover.exact p in
      Set_cover.is_cover p exact
      && List.length exact = brute_force p m
      && List.length exact <= List.length (Set_cover.greedy p))

let prop_greedy_covers =
  QCheck.Test.make ~count:150 ~name:"greedy always covers"
    QCheck.(make QCheck.Gen.(pair (1 -- 10) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = 1 + Random.State.int rng 8 in
      let edges =
        List.init m (fun _ ->
            let size = 1 + Random.State.int rng 4 in
            List.init size (fun _ -> Random.State.int rng n))
      in
      let h = Hypergraph.create ~n edges in
      let universe =
        List.filter (fun v -> Hypergraph.incident h v <> []) (List.init n Fun.id)
      in
      let p = { Set_cover.universe = Bitset.of_list n universe; hypergraph = h } in
      Set_cover.is_cover p (Set_cover.greedy ~rng p))

(* The greedy cover as it ran before the bitset gains: candidates
   deduplicated through a hash table, gains counted by walking each
   edge's vertex array.  Kept as the reference the bitset greedy must
   match, cover and random draws alike. *)
let reference_greedy ?rng (problem : Set_cover.problem) =
  let h = problem.hypergraph in
  let candidates =
    let seen = Hashtbl.create 16 in
    Bitset.fold
      (fun v acc ->
        List.fold_left
          (fun acc e ->
            if Hashtbl.mem seen e then acc
            else begin
              Hashtbl.add seen e ();
              e :: acc
            end)
          acc (Hypergraph.incident h v))
      problem.universe []
  in
  let covered_count e uncovered =
    Array.fold_left
      (fun n v -> if Bitset.mem uncovered v then n + 1 else n)
      0 (Hypergraph.edge h e)
  in
  let uncovered = Bitset.copy problem.universe in
  let chosen = ref [] in
  while not (Bitset.is_empty uncovered) do
    let best_gain = ref 0 and ties = ref 0 and pick = ref (-1) in
    List.iter
      (fun e ->
        let gain = covered_count e uncovered in
        if gain > !best_gain then begin
          best_gain := gain;
          ties := 1;
          pick := e
        end
        else if gain = !best_gain && gain > 0 then begin
          incr ties;
          match rng with
          | Some rng -> if Random.State.int rng !ties = 0 then pick := e
          | None -> ()
        end)
      candidates;
    chosen := !pick :: !chosen;
    Array.iter (Bitset.remove uncovered) (Hypergraph.edge h !pick)
  done;
  List.rev !chosen

let prop_greedy_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"bitset greedy = array-walk reference (cover and draws)"
    QCheck.(make QCheck.Gen.(triple (1 -- 70) (1 -- 40) int))
    (fun (n, m, seed) ->
      let rng = Random.State.make [| seed |] in
      let edges =
        List.init m (fun _ ->
            let size = 1 + Random.State.int rng 6 in
            List.init size (fun _ -> Random.State.int rng n))
      in
      let h = Hypergraph.create ~n edges in
      (* a random subset of the coverable vertices *)
      let universe =
        List.filter
          (fun v ->
            Hypergraph.incident h v <> [] && Random.State.int rng 3 > 0)
          (List.init n Fun.id)
      in
      let p = { Set_cover.universe = Bitset.of_list n universe; hypergraph = h } in
      let rng_a = Random.State.make [| seed; 1 |]
      and rng_b = Random.State.make [| seed; 1 |] in
      Set_cover.greedy p = reference_greedy p
      && Set_cover.greedy ~rng:rng_a p = reference_greedy ~rng:rng_b p
      && Random.State.bits (Random.State.copy rng_a)
         = Random.State.bits (Random.State.copy rng_b))

(* The exact cover as it ran before the bitset kernel: the uncovered
   set edited in place, gains counted by walking each edge's vertex
   array, the pivot's edges ranked through a sorted list.  Kept as the
   reference the kernel must match, cover list and branch nodes alike;
   returns both. *)
let reference_exact (problem : Set_cover.problem) =
  let h = problem.hypergraph in
  let covered_count edge uncovered =
    let count = ref 0 in
    Array.iter
      (fun v -> if Bitset.mem uncovered v then incr count)
      (Hypergraph.edge h edge);
    !count
  in
  let greedy_cover = reference_greedy problem in
  let best = ref (Array.of_list greedy_cover) in
  let best_size = ref (List.length greedy_cover) in
  let cutoff = ref !best_size in
  let candidates =
    let seen = Bitset.create (Hypergraph.n_edges h) in
    Bitset.fold
      (fun v acc ->
        List.fold_left
          (fun acc e ->
            if Bitset.mem seen e then acc
            else begin
              Bitset.add seen e;
              e :: acc
            end)
          acc (Hypergraph.incident h v))
      problem.universe []
  in
  let uncovered = Bitset.copy problem.universe in
  let chosen = ref [] in
  let nodes = ref 0 in
  let rec branch depth =
    incr nodes;
    if Bitset.is_empty uncovered then begin
      if depth < !cutoff then begin
        best := Array.of_list !chosen;
        best_size := depth;
        cutoff := depth
      end
    end
    else
      let remaining = Bitset.cardinal uncovered in
      let max_gain =
        List.fold_left
          (fun acc e -> max acc (covered_count e uncovered))
          1 candidates
      in
      let lb =
        Set_cover.cover_size_lower_bound ~universe_size:remaining
          ~max_set_size:max_gain
      in
      if depth + lb < !cutoff then begin
        let pivot = ref (-1) and pivot_options = ref max_int in
        Bitset.iter
          (fun v ->
            let options = List.length (Hypergraph.incident h v) in
            if options < !pivot_options then begin
              pivot := v;
              pivot_options := options
            end)
          uncovered;
        let ranked =
          Hypergraph.incident h !pivot
          |> List.map (fun e -> (-covered_count e uncovered, e))
          |> List.sort compare
        in
        List.iter
          (fun (neg_gain, e) ->
            if -neg_gain > 0 then begin
              let newly =
                Array.to_list (Hypergraph.edge h e)
                |> List.filter (Bitset.mem uncovered)
              in
              List.iter (Bitset.remove uncovered) newly;
              chosen := e :: !chosen;
              branch (depth + 1);
              chosen := List.tl !chosen;
              List.iter (Bitset.add uncovered) newly
            end)
          ranked
      end
  in
  branch 0;
  (Array.to_list !best, !nodes)

let c_exact_nodes = Hd_obs.Obs.Counter.make "setcover.exact_nodes"

let prop_exact_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"bitset exact = list-based reference (cover and nodes)"
    QCheck.(make QCheck.Gen.(triple (1 -- 40) (1 -- 25) int))
    (fun (n, m, seed) ->
      let rng = Random.State.make [| seed |] in
      let edges =
        List.init m (fun _ ->
            let size = 1 + Random.State.int rng 6 in
            List.init size (fun _ -> Random.State.int rng n))
      in
      let h = Hypergraph.create ~n edges in
      let universe =
        List.filter
          (fun v ->
            Hypergraph.incident h v <> [] && Random.State.int rng 4 > 0)
          (List.init n Fun.id)
      in
      let p = { Set_cover.universe = Bitset.of_list n universe; hypergraph = h } in
      Hd_obs.Obs.enable ();
      let before = Hd_obs.Obs.Counter.value c_exact_nodes in
      let cover = Set_cover.exact p in
      let nodes = Hd_obs.Obs.Counter.value c_exact_nodes - before in
      (cover, nodes) = reference_exact p)

(* --- fractional covers (exact rational) --- *)

module Rat = Hd_lp.Rat

let rat = Alcotest.testable Rat.pp Rat.equal

let test_fractional_triangle_gap () =
  (* the triangle: integral cover 2, fractional exactly 3/2 *)
  let p =
    problem ~n:3 ~edges:[ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] ~universe:[ 0; 1; 2 ]
  in
  Alcotest.check rat "rho*" (Rat.make 3 2) (Fractional.cover_value p);
  check_int "integral" 2 (List.length (Set_cover.exact p))

let test_fractional_clique () =
  (* K6 as binary edges: rho* of all six vertices = exactly 3 *)
  let edges = ref [] in
  for u = 0 to 5 do
    for v = u + 1 to 5 do
      edges := [ u; v ] :: !edges
    done
  done;
  let p = problem ~n:6 ~edges:!edges ~universe:[ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.check rat "K6 rho*" (Rat.of_int 3) (Fractional.cover_value p)

let test_fractional_single_edge () =
  let p = problem ~n:4 ~edges:[ [ 0; 1; 2; 3 ] ] ~universe:[ 0; 1; 2; 3 ] in
  Alcotest.check rat "one edge" Rat.one (Fractional.cover_value p);
  let p0 = problem ~n:4 ~edges:[ [ 0 ] ] ~universe:[] in
  Alcotest.check rat "empty bag" Rat.zero (Fractional.cover_value p0)

let test_fractional_verify_rejects () =
  (* verify must reject short weight and negative weight vectors *)
  let p =
    problem ~n:3 ~edges:[ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] ~universe:[ 0; 1; 2 ]
  in
  let { Fractional.weights; _ } = Fractional.cover p in
  Alcotest.(check bool) "optimal cover verifies" true (Fractional.verify p weights);
  let short = [ (0, Rat.make 1 2); (1, Rat.make 1 2); (2, Rat.make 1 4) ] in
  Alcotest.(check bool) "deficient cover rejected" false (Fractional.verify p short);
  let negative = [ (0, Rat.of_int 2); (1, Rat.of_int 2); (2, Rat.make (-1) 2) ] in
  Alcotest.(check bool) "negative weight rejected" false
    (Fractional.verify p negative)

let test_fractional_packing_certificate () =
  (* the triangle's optimal packing puts 1/2 on every vertex; a packing
     overloading an edge, or one lighter than rho*, breaks the
     weak-duality certificate *)
  let p =
    problem ~n:3 ~edges:[ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] ~universe:[ 0; 1; 2 ]
  in
  let s = Fractional.cover p in
  Alcotest.(check bool) "optimal packing verifies" true
    (Fractional.verify_packing p s.packing);
  Alcotest.check rat "packing weighs rho*" (Rat.make 3 2)
    (List.fold_left (fun acc (_, w) -> Rat.add acc w) Rat.zero s.packing);
  Alcotest.(check bool) "optimum certified" true (Fractional.certify p s);
  let overloaded = [ (0, Rat.one); (1, Rat.make 1 2); (2, Rat.make 1 2) ] in
  Alcotest.(check bool) "overloaded edge rejected" false
    (Fractional.verify_packing p overloaded);
  Alcotest.(check bool) "corrupted packing not certified" false
    (Fractional.certify p { s with packing = overloaded });
  let light = [ (0, Rat.make 1 2); (1, Rat.make 1 2) ] in
  Alcotest.(check bool) "light packing is feasible" true
    (Fractional.verify_packing p light);
  Alcotest.(check bool) "light packing not certified" false
    (Fractional.certify p { s with packing = light });
  Alcotest.(check bool) "outside vertex rejected" false
    (Fractional.verify_packing p [ (7, Rat.make 1 2) ])

let prop_fractional_bounds =
  QCheck.Test.make ~count:120
    ~name:"|U|/k <= rho* <= exact integral cover, weights feasible"
    QCheck.(make QCheck.Gen.(pair (1 -- 7) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = 1 + Random.State.int rng 6 in
      let edges =
        List.init m (fun _ ->
            let size = 1 + Random.State.int rng 3 in
            List.init size (fun _ -> Random.State.int rng n))
      in
      let h = Hypergraph.create ~n edges in
      let universe =
        List.filter (fun v -> Hypergraph.incident h v <> []) (List.init n Fun.id)
      in
      let p = { Set_cover.universe = Bitset.of_list n universe; hypergraph = h } in
      let ({ Fractional.value = rho; weights; _ } as solution) = Fractional.cover p in
      let integral = Rat.of_int (List.length (Set_cover.exact p)) in
      let lower =
        Rat.make (List.length universe) (max 1 (Hypergraph.max_edge_size h))
      in
      (* all comparisons exact: no epsilons anywhere *)
      Rat.compare rho integral <= 0
      && Rat.compare rho lower >= 0
      && Fractional.verify p weights
      && Fractional.certify p solution)

let () =
  Alcotest.run "setcover"
    [
      ( "unit",
        [
          Alcotest.test_case "greedy simple" `Quick test_greedy_simple;
          Alcotest.test_case "exact beats greedy" `Quick test_exact_beats_greedy;
          Alcotest.test_case "empty universe" `Quick test_empty_universe;
          Alcotest.test_case "uncoverable" `Quick test_uncoverable;
          Alcotest.test_case "k-set-cover bound" `Quick test_lower_bound;
          Alcotest.test_case "cache" `Quick test_cache;
        ] );
      ( "fractional",
        [
          Alcotest.test_case "triangle gap" `Quick test_fractional_triangle_gap;
          Alcotest.test_case "clique" `Quick test_fractional_clique;
          Alcotest.test_case "single edge" `Quick test_fractional_single_edge;
          Alcotest.test_case "verify rejects" `Quick test_fractional_verify_rejects;
          Alcotest.test_case "packing certificate" `Quick
            test_fractional_packing_certificate;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_exact_optimal;
            prop_greedy_covers;
            prop_fractional_bounds;
            prop_greedy_matches_reference;
            prop_exact_matches_reference;
          ] );
    ]
