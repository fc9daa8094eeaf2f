module Graph = Hd_graph.Graph
module Elim_graph = Hd_graph.Elim_graph
module Bitset = Hd_graph.Bitset
module Contract_graph = Hd_graph.Contract_graph
module Dimacs = Hd_graph.Dimacs
module Chordal = Hd_graph.Chordal

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let test_build () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 1 2;
  (* duplicate ignored *)
  Graph.add_edge g 3 3;
  (* self loop ignored *)
  check_int "m" 2 (Graph.m g);
  check "mem" true (Graph.mem_edge g 1 0);
  check "not mem" false (Graph.mem_edge g 0 2);
  check_int "degree 1" 2 (Graph.degree g 1);
  check_list "neighbors" [ 0; 2 ] (Graph.neighbors g 1)

let test_generators () =
  let k5 = Graph.complete 5 in
  check_int "K5 edges" 10 (Graph.m k5);
  check "K5 clique" true (Graph.is_clique k5 (Bitset.full 5));
  let c6 = Graph.cycle 6 in
  check_int "C6 edges" 6 (Graph.m c6);
  check_int "C6 degree" 2 (Graph.degree c6 0);
  let p4 = Graph.path 4 in
  check_int "P4 edges" 3 (Graph.m p4);
  let g33 = Graph.grid 3 3 in
  check_int "grid3 edges" 12 (Graph.m g33);
  check_int "grid3 corner degree" 2 (Graph.degree g33 0);
  check_int "grid3 center degree" 4 (Graph.degree g33 4)

let test_components () =
  let g = Graph.create 5 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 2 3;
  check "not connected" false (Graph.is_connected g);
  Alcotest.(check (list (list int)))
    "components"
    [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ]
    (Graph.components g);
  Graph.add_edge g 1 2;
  Graph.add_edge g 3 4;
  check "connected" true (Graph.is_connected g);
  (* the path 0-1-2-3-4 without vertex 2 falls apart *)
  Alcotest.(check (list (list int)))
    "components within"
    [ [ 0; 1 ]; [ 3; 4 ] ]
    (Graph.components ~within:(Bitset.of_list 5 [ 0; 1; 3; 4 ]) g)

let test_eliminate_restore () =
  (* the worked example of Figure 5.2: eliminating a vertex connects
     its neighbours *)
  let g = Graph.cycle 4 in
  let eg = Elim_graph.of_graph g in
  check_int "fill of cycle vertex" 1 (Elim_graph.fill_count eg 0);
  Elim_graph.eliminate eg 0;
  check "fill edge added" true (Elim_graph.mem_edge eg 1 3);
  check_int "alive" 3 (Elim_graph.n_alive eg);
  check "dead" false (Elim_graph.is_alive eg 0);
  Elim_graph.restore_last eg;
  check "fill edge removed" false (Elim_graph.mem_edge eg 1 3);
  check "alive again" true (Elim_graph.is_alive eg 0);
  check_int "degree restored" 2 (Elim_graph.degree eg 0)

let test_restore_roundtrip_exact () =
  let rng = Random.State.make [| 42 |] in
  for _trial = 1 to 25 do
    let n = 2 + Random.State.int rng 12 in
    let g = Graph.create n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Random.State.float rng 1.0 < 0.4 then Graph.add_edge g u v
      done
    done;
    let eg = Elim_graph.of_graph g in
    let order = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    let steps = Random.State.int rng n in
    for i = 0 to steps - 1 do
      Elim_graph.eliminate eg order.(i)
    done;
    Elim_graph.restore_all eg;
    (* graph must be exactly the original *)
    let same = ref true in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v && Graph.mem_edge g u v <> Elim_graph.mem_edge eg u v then
          same := false
      done
    done;
    check "roundtrip restores adjacency" true !same;
    check_int "roundtrip restores count" n (Elim_graph.n_alive eg)
  done

let test_simplicial () =
  (* star + triangle: in K4 minus an edge, the two clique vertices are
     simplicial *)
  let g = Graph.complete 4 in
  let eg = Elim_graph.of_graph g in
  check "clique vertex simplicial" true (Elim_graph.is_simplicial eg 0);
  let g2 = Graph.cycle 4 in
  let eg2 = Elim_graph.of_graph g2 in
  check "cycle vertex not simplicial" false (Elim_graph.is_simplicial eg2 0);
  check "cycle vertex almost simplicial" true
    (Elim_graph.is_almost_simplicial eg2 0);
  (match Elim_graph.find_reducible eg2 ~lb:2 with
  | Some _ -> ()
  | None -> Alcotest.fail "C4 vertex is strongly almost simplicial at lb=2");
  check "no reduction at lb=1" true
    (Elim_graph.find_reducible eg2 ~lb:1 = None)

let test_contract () =
  let g = Graph.cycle 5 in
  let cg = Contract_graph.of_graph g in
  Contract_graph.contract cg 0 1;
  (* contracting an edge of C5 yields C4 *)
  check_int "alive" 4 (Contract_graph.n_alive cg);
  check_int "degree" 2 (Contract_graph.degree cg 0);
  check "merged adjacency" true (Contract_graph.mem_edge cg 0 2);
  check "no self loop" false (Contract_graph.mem_edge cg 0 0)

let test_dimacs_roundtrip () =
  let g = Graph.grid 3 2 in
  let text = Dimacs.to_string g in
  let g' = Dimacs.parse_string text in
  check_int "n" (Graph.n g) (Graph.n g');
  check_int "m" (Graph.m g) (Graph.m g');
  Alcotest.(check (list (pair int int))) "edges" (Graph.edges g) (Graph.edges g')

let test_dimacs_parse () =
  let g =
    Dimacs.parse_string "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"
  in
  check_int "n" 3 (Graph.n g);
  check_int "m" 2 (Graph.m g);
  check "edge" true (Graph.mem_edge g 0 1)

(* malformed input fails with a located [Failure], never an assertion
   or an index error: endpoints out of range (also before the problem
   line), negative or non-integer counts, non-integer endpoints *)
let test_dimacs_malformed () =
  List.iter
    (fun (text, line) ->
      match Dimacs.parse_string text with
      | _ -> Alcotest.failf "accepted %S" text
      | exception Failure msg ->
          let prefix = Printf.sprintf "Dimacs: line %d: " line in
          check (Printf.sprintf "%S -> %s" text msg) true
            (String.starts_with ~prefix msg))
    [
      ("p edge 3 1\ne 1 5\n", 2);
      ("p edge -2 0\n", 1);
      ("e 0 1\np edge 3 1\n", 1);
      ("e 2 4\np edge 3 1\n", 1);
      ("p edge 3 1\ne 1 x\n", 2);
      ("p edge x 1\n", 1);
      ("p edge 3 y\n", 1);
      ("p edge 3 1\np edge 3 1\n", 2);
      ("p edge 3 1\nq 1 2\n", 2);
    ];
  check "missing problem line" true
    (try
       ignore (Dimacs.parse_string "e 1 2\n");
       false
     with Failure _ -> true)

(* property: eliminating a vertex makes its old neighbourhood a clique *)
let prop_elimination_clique =
  QCheck.Test.make ~count:100 ~name:"elimination creates clique"
    QCheck.(make QCheck.Gen.(pair (2 -- 10) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Graph.create n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.float rng 1.0 < 0.5 then Graph.add_edge g u v
        done
      done;
      let eg = Elim_graph.of_graph g in
      let v = Random.State.int rng n in
      let nbrs = Elim_graph.neighbors eg v in
      Elim_graph.eliminate eg v;
      List.for_all
        (fun a -> List.for_all (fun b -> a = b || Elim_graph.mem_edge eg a b) nbrs)
        nbrs)



let test_trail_depth () =
  let g = Graph.complete 4 in
  let eg = Elim_graph.of_graph g in
  check_int "depth 0" 0 (Elim_graph.depth eg);
  check "no last step" true (Elim_graph.last_step eg = None);
  Elim_graph.eliminate eg 0;
  Elim_graph.eliminate eg 1;
  check_int "depth 2" 2 (Elim_graph.depth eg);
  (match Elim_graph.last_step eg with
  | Some step ->
      check_int "last vertex" 1 step.Elim_graph.vertex;
      check_list "last nbrs" [ 2; 3 ] step.Elim_graph.nbrs;
      check "K4: no fill" true (step.Elim_graph.fill = [])
  | None -> Alcotest.fail "expected a step");
  check_int "trail length" 2 (List.length (Elim_graph.trail eg));
  Alcotest.check_raises "restore past empty"
    (Invalid_argument "Elim_graph.restore_last: nothing to restore")
    (fun () ->
      Elim_graph.restore_all eg;
      Elim_graph.restore_last eg)

let test_graph_copy_independent () =
  let g = Graph.path 4 in
  let g2 = Graph.copy g in
  Graph.add_edge g2 0 3;
  check "copy isolated" false (Graph.mem_edge g 0 3);
  check "copy has edge" true (Graph.mem_edge g2 0 3)

let test_degrees () =
  let g = Graph.complete 5 in
  check_int "max degree" 4 (Graph.max_degree g);
  check_int "min degree" 4 (Graph.min_degree g);
  check_int "empty max degree" 0 (Graph.max_degree (Graph.create 0));
  check "min_degree empty raises" true
    (try
       ignore (Graph.min_degree (Graph.create 0));
       false
     with Invalid_argument _ -> true)

(* --- chordal graphs --- *)

let test_chordal_basics () =
  check "tree chordal" true (Chordal.is_chordal (Graph.path 6));
  check "clique chordal" true (Chordal.is_chordal (Graph.complete 5));
  check "C4 not chordal" false (Chordal.is_chordal (Graph.cycle 4));
  check "C6 not chordal" false (Chordal.is_chordal (Graph.cycle 6));
  check "triangle chordal" true (Chordal.is_chordal (Graph.cycle 3));
  check "empty chordal" true (Chordal.is_chordal (Graph.create 3))

let test_chordal_clique_number () =
  Alcotest.(check (option int)) "K5" (Some 5)
    (Chordal.max_clique_size_if_chordal (Graph.complete 5));
  Alcotest.(check (option int)) "path" (Some 2)
    (Chordal.max_clique_size_if_chordal (Graph.path 5));
  Alcotest.(check (option int)) "C5 none" None
    (Chordal.max_clique_size_if_chordal (Graph.cycle 5))

let test_peo_checker () =
  (* on P3 = 0-1-2: eliminating the middle vertex first adds fill *)
  let g = Graph.path 3 in
  check "ends-first is PEO" true
    (Chordal.is_perfect_elimination_ordering g [| 1; 2; 0 |]);
  check "middle-first is not" false
    (Chordal.is_perfect_elimination_ordering g [| 0; 2; 1 |])

let prop_triangulation_chordal =
  QCheck.Test.make ~count:100 ~name:"triangulate yields chordal supergraph + PEO"
    QCheck.(make QCheck.Gen.(pair (2 -- 12) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Graph.create n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.float rng 1.0 < 0.35 then Graph.add_edge g u v
        done
      done;
      let chordal, sigma = Chordal.triangulate rng g in
      Chordal.is_chordal chordal
      && Chordal.is_perfect_elimination_ordering chordal sigma
      && List.for_all (fun (u, v) -> Graph.mem_edge chordal u v) (Graph.edges g))

let prop_chordal_treewidth =
  QCheck.Test.make ~count:30 ~name:"chordal treewidth = clique number - 1"
    QCheck.(make QCheck.Gen.(pair (2 -- 8) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Graph.create n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.float rng 1.0 < 0.4 then Graph.add_edge g u v
        done
      done;
      let chordal, _ = Chordal.triangulate rng g in
      match Chordal.max_clique_size_if_chordal chordal with
      | None -> false
      | Some clique ->
          let tw =
            match
              (Hd_search.Ordering_search.Tw.astar ~seed:1 chordal).outcome
            with
            | Exact w -> w
            | Bounds _ -> -1
          in
          tw = clique - 1)

(* --- bucket queues --- *)

let test_bucket_queue_basics () =
  let module Bq = Hd_graph.Bucket_queue in
  let bq = Bq.create 6 in
  check_int "capacity" 6 (Bq.capacity bq);
  check_int "empty" 0 (Bq.cardinal bq);
  Bq.insert bq 0 3;
  Bq.insert bq 1 1;
  Bq.insert bq 2 3;
  Bq.insert bq 3 0;
  check_int "cardinal" 4 (Bq.cardinal bq);
  check "mem" true (Bq.mem bq 2);
  check "not mem" false (Bq.mem bq 5);
  check_int "priority" 3 (Bq.priority bq 0);
  check_int "min" 0 (Bq.min_priority bq);
  Bq.remove bq 3;
  check_int "min after remove" 1 (Bq.min_priority bq);
  Bq.update bq 1 7;
  (* larger than any bucket seen: directory must grow *)
  check_int "min after increase-key" 3 (Bq.min_priority bq);
  Bq.update bq 2 0;
  check_int "min after decrease-key" 0 (Bq.min_priority bq);
  let seen = ref [] in
  Bq.iter_bucket (fun v -> seen := v :: !seen) bq 3;
  check_list "bucket 3" [ 0 ] !seen;
  Bq.remove bq 0;
  Bq.remove bq 1;
  Bq.remove bq 2;
  check_int "drained" 0 (Bq.cardinal bq)

let prop_bucket_queue_matches_naive =
  (* drive a queue with a random op sequence; cardinal/membership/
     priorities/min must match a naive association list *)
  QCheck.Test.make ~count:200 ~name:"bucket queue = naive priority map"
    QCheck.(make QCheck.Gen.(pair (1 -- 12) int))
    (fun (n, seed) ->
      let module Bq = Hd_graph.Bucket_queue in
      let rng = Random.State.make [| seed |] in
      let bq = Bq.create n in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to 120 do
        let v = Random.State.int rng n in
        let p = Random.State.int rng 10 in
        (match (Hashtbl.mem model v, Random.State.int rng 3) with
        | false, _ -> Bq.insert bq v p; Hashtbl.replace model v p
        | true, 0 -> Bq.remove bq v; Hashtbl.remove model v
        | true, _ -> Bq.update bq v p; Hashtbl.replace model v p);
        ok := !ok && Bq.cardinal bq = Hashtbl.length model;
        Hashtbl.iter
          (fun v p -> ok := !ok && Bq.mem bq v && Bq.priority bq v = p)
          model;
        if Hashtbl.length model > 0 then begin
          let m = Hashtbl.fold (fun _ p acc -> min p acc) model max_int in
          ok := !ok && Bq.min_priority bq = m;
          (* the min bucket holds exactly the model's minimal items *)
          let bucket = ref [] in
          Bq.iter_bucket (fun v -> bucket := v :: !bucket) bq m;
          let expect =
            Hashtbl.fold (fun v p acc -> if p = m then v :: acc else acc) model []
          in
          ok :=
            !ok
            && List.sort compare !bucket = List.sort compare expect
        end
      done;
      !ok)

(* --- alive iteration and canonical hashing --- *)

let test_iter_fold_alive () =
  let g = Graph.grid 3 3 in
  let eg = Elim_graph.of_graph g in
  Elim_graph.eliminate eg 4;
  Elim_graph.eliminate eg 0;
  let via_iter = ref [] in
  Elim_graph.iter_alive (fun v -> via_iter := v :: !via_iter) eg;
  check_list "iter_alive = alive_list" (Elim_graph.alive_list eg)
    (List.rev !via_iter);
  let via_fold =
    List.rev (Elim_graph.fold_alive (fun v acc -> v :: acc) eg [])
  in
  check_list "fold_alive = alive_list" (Elim_graph.alive_list eg) via_fold

let test_fnv_hash () =
  (* canonical: content decides, build order doesn't *)
  let a = Bitset.of_list 100 [ 3; 97; 41 ] in
  let b = Bitset.of_list 100 [ 97; 3; 41 ] in
  check "same content, same hash" true (Bitset.fnv_hash a = Bitset.fnv_hash b);
  check "non-negative" true (Bitset.fnv_hash a >= 0);
  Bitset.remove b 41;
  check "different content, different hash" true
    (Bitset.fnv_hash a <> Bitset.fnv_hash b);
  check_int "empty set hash is the offset basis" 0xbf29ce484222325
    (Bitset.fnv_hash (Bitset.create 10))

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "build" `Quick test_build;
          Alcotest.test_case "generators" `Quick test_generators;
          Alcotest.test_case "components" `Quick test_components;
        ] );
      ( "elimination",
        [
          Alcotest.test_case "eliminate/restore" `Quick test_eliminate_restore;
          Alcotest.test_case "roundtrip random" `Quick test_restore_roundtrip_exact;
          Alcotest.test_case "simplicial tests" `Quick test_simplicial;
          Alcotest.test_case "trail and depth" `Quick test_trail_depth;
        ] );
      ( "graph extras",
        [
          Alcotest.test_case "copy independence" `Quick test_graph_copy_independent;
          Alcotest.test_case "degrees" `Quick test_degrees;
        ] );
      ( "bucket queue",
        [ Alcotest.test_case "basics" `Quick test_bucket_queue_basics ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_bucket_queue_matches_naive ] );
      ( "alive iteration",
        [
          Alcotest.test_case "iter/fold alive" `Quick test_iter_fold_alive;
          Alcotest.test_case "fnv hash" `Quick test_fnv_hash;
        ] );
      ("contract", [ Alcotest.test_case "contract C5" `Quick test_contract ]);
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "parse" `Quick test_dimacs_parse;
          Alcotest.test_case "malformed" `Quick test_dimacs_malformed;
        ] );
      ( "chordal",
        [
          Alcotest.test_case "recognition" `Quick test_chordal_basics;
          Alcotest.test_case "clique number" `Quick test_chordal_clique_number;
          Alcotest.test_case "PEO checker" `Quick test_peo_checker;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_elimination_clique; prop_triangulation_chordal; prop_chordal_treewidth ]
      );
    ]
