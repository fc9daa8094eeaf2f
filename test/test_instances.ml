module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Graphs = Hd_instances.Graphs
module Hypergraphs = Hd_instances.Hypergraphs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_queen () =
  let g = Graphs.queen 5 in
  check_int "queen5_5 vertices" 25 (Graph.n g);
  check_int "queen5_5 edges" 160 (Graph.m g);
  (* the DIMACS .col files list each edge in both directions (320 lines) *)
  let g8 = Graphs.queen 8 in
  check_int "queen8_8 edges" 728 (Graph.m g8);
  (* row 0 is a clique of 5 *)
  check "row clique" true (Graph.mem_edge g 0 4);
  check "diagonal" true (Graph.mem_edge g 0 24);
  check "knight move not adjacent" false (Graph.mem_edge g 0 7)

let test_mycielski () =
  (* DIMACS sizes: myciel3 = Groetzsch graph *)
  List.iter
    (fun (k, v, e) ->
      let g = Graphs.mycielski k in
      check_int (Printf.sprintf "myciel%d vertices" k) v (Graph.n g);
      check_int (Printf.sprintf "myciel%d edges" k) e (Graph.m g))
    [ (3, 11, 20); (4, 23, 71); (5, 47, 236); (6, 95, 755); (7, 191, 2360) ];
  (* Mycielski graphs are triangle-free *)
  let g = Graphs.mycielski 4 in
  let triangle = ref false in
  for a = 0 to Graph.n g - 1 do
    List.iter
      (fun b ->
        if b > a then
          List.iter (fun c -> if c > b && Graph.mem_edge g a c then triangle := true)
            (Graph.neighbors g b))
      (Graph.neighbors g a)
  done;
  check "triangle-free" false !triangle

let test_random_families_sizes () =
  List.iter
    (fun (name, v, e) ->
      match Graphs.by_name name with
      | None -> Alcotest.failf "missing instance %s" name
      | Some g ->
          check_int (name ^ " vertices") v (Graph.n g);
          (* the book and miles .col files double-list edges; the
             builders target the undirected half *)
          let doubled =
            List.exists
              (fun p ->
                String.length name >= String.length p
                && String.sub name 0 (String.length p) = p)
              [ "anna"; "david"; "huck"; "jean"; "homer"; "miles"; "games" ]
          in
          let target = if doubled then e / 2 else e in
          let slack = max 40 (target / 10) in
          check (name ^ " edges close") true (abs (Graph.m g - target) <= slack))
    (List.filter
       (fun (name, _, _) ->
         List.exists
           (fun p -> String.length name >= String.length p
                     && String.sub name 0 (String.length p) = p)
           [ "anna"; "david"; "huck"; "jean"; "miles"; "le450"; "DSJC" ])
       Graphs.names)

let test_by_name_exact_families () =
  (match Graphs.by_name "queen6_6" with
  | Some g -> check_int "queen6_6" 290 (Graph.m g)
  | None -> Alcotest.fail "queen6_6 missing");
  (match Graphs.by_name "grid5" with
  | Some g -> check_int "grid5" 40 (Graph.m g)
  | None -> Alcotest.fail "grid5 missing");
  check "unknown" true (Graphs.by_name "nonexistent" = None)

let test_determinism () =
  match (Graphs.by_name "anna", Graphs.by_name "anna") with
  | Some a, Some b ->
      Alcotest.(check (list (pair int int))) "same seeded graph" (Graph.edges a) (Graph.edges b)
  | _ -> Alcotest.fail "anna missing"

let test_adder () =
  let h = Hypergraphs.adder 75 in
  check_int "adder_75 vertices" 376 (Hypergraph.n_vertices h);
  check_int "adder_75 edges" 526 (Hypergraph.n_edges h);
  let h99 = Hypergraphs.adder 99 in
  check_int "adder_99 vertices" 496 (Hypergraph.n_vertices h99);
  check_int "adder_99 edges" 694 (Hypergraph.n_edges h99);
  check "covered" true (Hypergraph.all_vertices_covered h);
  (* bounded ghw: the greedy evaluation of a min-fill ordering must stay
     small on every adder size *)
  let ws = Hd_core.Eval.of_hypergraph h in
  let rng = Random.State.make [| 2 |] in
  let sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
  check "adder ghw small" true (Hd_core.Eval.ghw_width ~rng ws sigma <= 4)

let test_bridge () =
  let h = Hypergraphs.bridge 50 in
  check_int "bridge_50 vertices" 452 (Hypergraph.n_vertices h);
  check_int "bridge_50 edges" 452 (Hypergraph.n_edges h);
  check "covered" true (Hypergraph.all_vertices_covered h)

let test_clique () =
  let h = Hypergraphs.clique 20 in
  check_int "clique_20 vertices" 20 (Hypergraph.n_vertices h);
  check_int "clique_20 edges" 190 (Hypergraph.n_edges h);
  check_int "max edge size" 2 (Hypergraph.max_edge_size h)

let test_grids () =
  let h2 = Hypergraphs.grid2d 20 in
  check_int "grid2d_20 vertices" 200 (Hypergraph.n_vertices h2);
  check_int "grid2d_20 edges" 200 (Hypergraph.n_edges h2);
  let h3 = Hypergraphs.grid3d 8 in
  check_int "grid3d_8 vertices" 256 (Hypergraph.n_vertices h3);
  check_int "grid3d_8 edges" 256 (Hypergraph.n_edges h3);
  check "covered" true (Hypergraph.all_vertices_covered h3)

let test_circuits () =
  List.iter
    (fun (name, v, e) ->
      match Hypergraphs.by_name name with
      | None -> Alcotest.failf "missing %s" name
      | Some h ->
          check_int (name ^ " vertices") v (Hypergraph.n_vertices h);
          check_int (name ^ " edges") e (Hypergraph.n_edges h);
          check (name ^ " covered") true (Hypergraph.all_vertices_covered h))
    [ ("b06", 48, 50); ("b09", 168, 169); ("c499", 202, 243); ("c880", 383, 443) ]

let test_small_instances_solvable () =
  (* the small family members are feasible for the exact methods *)
  (match Hypergraphs.by_name "clique_10" with
  | Some h -> (
      match (Hd_search.Ordering_search.Ghw.bb ~seed:1 h).outcome with
      | Exact w -> check_int "clique_10 ghw" 5 w
      | Bounds _ -> Alcotest.fail "should be exact")
  | None -> Alcotest.fail "clique_10 missing");
  match Hypergraphs.by_name "adder_15" with
  | Some h ->
      let result =
        Hd_search.Ordering_search.Ghw.bb
          ~within:(Hd_engine.Budget.create ~time_limit:5.0 ())
          ~seed:1 h
      in
      let ub =
        match result.outcome with Exact w -> w | Bounds { ub; _ } -> ub
      in
      check "adder_15 ghw <= 3" true (ub <= 3)
  | None -> Alcotest.fail "adder_15 missing"


let test_registry_smoke () =
  (* every named graph builds, deterministically, at the right size *)
  List.iter
    (fun (name, v, _) ->
      match Graphs.by_name name with
      | None -> Alcotest.failf "graph %s missing" name
      | Some g -> check_int (name ^ " |V|") v (Graph.n g))
    Graphs.names;
  (* every named hypergraph builds, at the right size, fully covered *)
  List.iter
    (fun (name, v, e) ->
      match Hypergraphs.by_name name with
      | None -> Alcotest.failf "hypergraph %s missing" name
      | Some h ->
          check_int (name ^ " |V|") v (Hypergraph.n_vertices h);
          check_int (name ^ " |H|") e (Hypergraph.n_edges h);
          check (name ^ " covered") true (Hypergraph.all_vertices_covered h))
    Hypergraphs.names

let test_bridge_connected () =
  (* the bridge ladder must be one connected structure *)
  let h = Hypergraphs.bridge 10 in
  let g = Hypergraph.primal h in
  check "bridge primal connected" true (Graph.is_connected g)

let test_adder_names () =
  let h = Hypergraphs.adder 3 in
  Alcotest.(check string) "carry-in name" "cin"
    (Hypergraph.vertex_name h (Hypergraph.n_vertices h - 1));
  Alcotest.(check string) "a0" "a0" (Hypergraph.vertex_name h 0)

let () =
  Alcotest.run "instances"
    [
      ( "graphs",
        [
          Alcotest.test_case "queen" `Quick test_queen;
          Alcotest.test_case "mycielski" `Quick test_mycielski;
          Alcotest.test_case "random family sizes" `Quick test_random_families_sizes;
          Alcotest.test_case "by_name" `Quick test_by_name_exact_families;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "hypergraphs",
        [
          Alcotest.test_case "adder" `Quick test_adder;
          Alcotest.test_case "bridge" `Quick test_bridge;
          Alcotest.test_case "clique" `Quick test_clique;
          Alcotest.test_case "grids" `Quick test_grids;
          Alcotest.test_case "circuits" `Quick test_circuits;
          Alcotest.test_case "registry smoke" `Quick test_registry_smoke;
          Alcotest.test_case "bridge connected" `Quick test_bridge_connected;
          Alcotest.test_case "adder names" `Quick test_adder_names;
          Alcotest.test_case "small instances solvable" `Slow test_small_instances_solvable;
        ] );
    ]
