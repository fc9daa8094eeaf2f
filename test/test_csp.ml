module Graph = Hd_graph.Graph
module Qrelation = Hd_query.Qrelation
module Cx = Hd_query.Colexec
module Join_tree = Hd_query.Join_tree
module Obs = Hd_obs.Obs
module Csp = Hd_csp.Csp
module Solver = Hd_csp.Solver
module Models = Hd_csp.Models
module Adaptive = Hd_csp.Adaptive_consistency
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module Ordering = Hd_core.Ordering

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- relations: Qrelation storage, Colexec operators --- *)

(* natural join through the columnar kernel; scope is [a]'s attributes
   then [b]'s private ones *)
let join a b =
  let sa = Qrelation.scope a in
  let priv =
    List.filter (fun v -> not (Array.mem v sa)) (Array.to_list (Qrelation.scope b))
  in
  Join_tree.bag [ a; b ] ~scope:(Array.append sa (Array.of_list priv))

(* [a]'s rows with a match in [b], as a relation *)
let semijoin a b =
  let shared =
    Array.of_list
      (List.filter
         (fun v -> Array.mem v (Qrelation.scope b))
         (Array.to_list (Qrelation.scope a)))
  in
  let sel =
    Cx.semijoin
      ~probe:(a, Cx.all_rows a, Qrelation.positions a shared)
      ~build:(b, Cx.all_rows b, Qrelation.positions b shared)
      ()
  in
  Qrelation.make ~scope:(Qrelation.scope a)
    (Array.to_list (Array.map (Qrelation.row a) sel))

let r_ab = Qrelation.make ~scope:[| 0; 1 |] [ [| 1; 2 |]; [| 1; 3 |]; [| 2; 3 |] ]
let r_bc = Qrelation.make ~scope:[| 1; 2 |] [ [| 2; 5 |]; [| 3; 6 |] ]

let test_relation_basics () =
  check_int "arity" 2 (Qrelation.arity r_ab);
  check_int "cardinality" 3 (Qrelation.cardinality r_ab);
  check "mem" true (Qrelation.mem r_ab [| 1; 3 |]);
  check "not mem" false (Qrelation.mem r_ab [| 3; 1 |]);
  check "arity-mismatched tuple not mem" false (Qrelation.mem r_ab [| 1 |]);
  check_int "value" 2 (Qrelation.get r_ab 0 (Qrelation.position r_ab 1));
  (* dedup *)
  let r = Qrelation.make ~scope:[| 0 |] [ [| 1 |]; [| 1 |]; [| 2 |] ] in
  check_int "deduped" 2 (Qrelation.cardinality r)

let test_relation_join () =
  let j = join r_ab r_bc in
  Alcotest.(check (array int)) "join scope" [| 0; 1; 2 |] (Qrelation.scope j);
  check_int "join size" 3 (Qrelation.cardinality j);
  check "tuple" true (Qrelation.mem j [| 1; 2; 5 |]);
  check "tuple" true (Qrelation.mem j [| 2; 3; 6 |]);
  (* join with disjoint scope = cartesian product *)
  let r_d = Qrelation.make ~scope:[| 5 |] [ [| 9 |]; [| 8 |] ] in
  check_int "cartesian" 6 (Qrelation.cardinality (join r_ab r_d))

let test_relation_semijoin () =
  let s = semijoin r_ab r_bc in
  check_int "semijoin keeps matched" 3 (Qrelation.cardinality s);
  let r_bc' = Qrelation.make ~scope:[| 1; 2 |] [ [| 2; 5 |] ] in
  let s' = semijoin r_ab r_bc' in
  check_int "semijoin filters" 1 (Qrelation.cardinality s');
  check "kept the right tuple" true (Qrelation.mem s' [| 1; 2 |])

let test_relation_project_select_full () =
  let p = Join_tree.bag [ r_ab ] ~scope:[| 1 |] in
  check_int "project dedups" 2 (Qrelation.cardinality p);
  (* selection is a semijoin with a unary relation *)
  let s = semijoin r_ab (Qrelation.make ~scope:[| 0 |] [ [| 1 |] ]) in
  check_int "select" 2 (Qrelation.cardinality s);
  let csp = Csp.make ~domains:[| [| 0; 1 |]; [| 0; 1; 2 |] |] [] in
  let f =
    Join_tree.bag
      [ Csp.domain_relation csp 0; Csp.domain_relation csp 1 ]
      ~scope:[| 0; 1 |]
  in
  check_int "full" 6 (Qrelation.cardinality f)

let random_relation rng ~max_rows scope =
  Qrelation.make ~scope
    (List.init
       (1 + Random.State.int rng max_rows)
       (fun _ -> Array.init (Array.length scope) (fun _ -> Random.State.int rng 3)))

let prop_join_commutes =
  QCheck.Test.make ~count:100 ~name:"join cardinality commutes"
    QCheck.(make QCheck.Gen.(pair int int))
    (fun (s1, s2) ->
      let rng = Random.State.make [| s1; s2 |] in
      let a = random_relation rng ~max_rows:6 [| 0; 1 |]
      and b = random_relation rng ~max_rows:6 [| 1; 2 |] in
      Qrelation.cardinality (join a b) = Qrelation.cardinality (join b a))

(* --- CSP basics --- *)

let test_australia () =
  let csp = Models.australia () in
  check_int "vars" 7 (Csp.n_variables csp);
  check_int "constraints" 9 (Csp.n_constraints csp);
  (match Csp.solve_backtracking csp with
  | None -> Alcotest.fail "Australia is 3-colorable"
  | Some a ->
      check "consistent" true (Csp.consistent csp a);
      (* the paper's example solution is also valid *)
      check "paper solution" true
        (Csp.consistent csp [| 0; 1; 0; 2; 1; 0; 1 |]));
  (* SA with the ring path WA-NT-Q-NSW-V around it: 3 choices for SA,
     2 alternating colorings of the path, 3 free choices for TAS *)
  check_int "solution count" 18 (Csp.count_solutions csp)

let test_example5 () =
  let csp = Models.example5 () in
  match Csp.solve_backtracking csp with
  | None -> Alcotest.fail "example 5 is satisfiable"
  | Some a ->
      check "consistent" true (Csp.consistent csp a);
      (* x1=a x2=b x3=c x4=c x5=b x6=c is the run of Figure 2.8 *)
      check "figure 2.8 solution" true
        (Csp.consistent csp [| 0; 1; 2; 2; 1; 2 |])

let test_sat_model () =
  (* (x1 | -x2) & (x2 | x3) & (-x1 | -x3) *)
  let csp = Models.sat [ [ 1; -2 ]; [ 2; 3 ]; [ -1; -3 ] ] ~n_vars:3 in
  (match Csp.solve_backtracking csp with
  | None -> Alcotest.fail "satisfiable"
  | Some a -> check "consistent" true (Csp.consistent csp a));
  (* unsatisfiable: x & -x *)
  let unsat = Models.sat [ [ 1 ]; [ -1 ] ] ~n_vars:1 in
  check "unsat detected" true (Csp.solve_backtracking unsat = None)

let test_nqueens () =
  check_int "4-queens solutions" 2 (Csp.count_solutions (Models.n_queens 4));
  check_int "5-queens solutions" 10 (Csp.count_solutions (Models.n_queens 5));
  check "3-queens unsat" true (Csp.solve_backtracking (Models.n_queens 3) = None)

(* --- acyclic solving --- *)

let test_acyclic_solving_figure () =
  (* a path-shaped join tree *)
  let rels =
    [|
      Qrelation.make ~scope:[| 0; 1 |] [ [| 0; 1 |]; [| 1; 1 |] ];
      Qrelation.make ~scope:[| 1; 2 |] [ [| 1; 0 |]; [| 2; 2 |] ];
      Qrelation.make ~scope:[| 2; 3 |] [ [| 0; 5 |] ];
    |]
  in
  let jt = { Join_tree.rels; parent = [| -1; 0; 1 |] } in
  check "join tree" true (Join_tree.is_join_tree jt);
  match Join_tree.solve jt ~n_vars:4 with
  | None -> Alcotest.fail "satisfiable"
  | Some a ->
      Alcotest.(check (array int)) "unique solution" [| 0; 1; 0; 5 |] a

let test_acyclic_unsat () =
  let rels =
    [|
      Qrelation.make ~scope:[| 0 |] [ [| 1 |] ];
      Qrelation.make ~scope:[| 0 |] [ [| 2 |] ];
    |]
  in
  let jt = { Join_tree.rels; parent = [| -1; 0 |] } in
  check "unsat" true (Join_tree.solve jt ~n_vars:1 = None)

(* --- solving from decompositions --- *)

let decompose_and_solve csp seed =
  let td = Solver.solve csp ~strategy:`Td ~seed in
  let ghd = Solver.solve csp ~strategy:`Ghd ~seed in
  (td, ghd)

let test_solve_australia_from_decompositions () =
  let csp = Models.australia () in
  let td, ghd = decompose_and_solve csp 1 in
  (match td with
  | Some a -> check "TD solution consistent" true (Csp.consistent csp a)
  | None -> Alcotest.fail "TD solving failed");
  match ghd with
  | Some a -> check "GHD solution consistent" true (Csp.consistent csp a)
  | None -> Alcotest.fail "GHD solving failed"

let test_solve_example5_from_decompositions () =
  let csp = Models.example5 () in
  let td, ghd = decompose_and_solve csp 2 in
  check "TD solves" true (td <> None);
  check "GHD solves" true (ghd <> None)

let test_solve_explicit_decompositions () =
  let csp = Models.example5 () in
  let h = Csp.hypergraph csp in
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 10 do
    let sigma = Ordering.random rng (Csp.n_variables csp) in
    let td = Td.of_ordering_hypergraph h sigma in
    (match Solver.solve_with_td csp td with
    | Some a -> check "TD random ordering" true (Csp.consistent csp a)
    | None -> Alcotest.fail "TD solving failed");
    let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
    match Solver.solve_with_ghd csp ghd with
    | Some a -> check "GHD random ordering" true (Csp.consistent csp a)
    | None -> Alcotest.fail "GHD solving failed"
  done

let prop_decomposition_solving_agrees =
  QCheck.Test.make ~count:60
    ~name:"TD/GHD solving agrees with backtracking on satisfiability"
    QCheck.(make QCheck.Gen.(pair int (0 -- 1000)))
    (fun (seed, tseed) ->
      let tightness = float_of_int tseed /. 1000.0 in
      let csp =
        Models.random_csp ~seed ~n_vars:6 ~domain_size:3 ~n_constraints:5
          ~arity:2 ~tightness
      in
      let oracle = Csp.solve_backtracking csp <> None in
      let td = Solver.solve csp ~strategy:`Td ~seed in
      let ghd = Solver.solve csp ~strategy:`Ghd ~seed in
      let sat_matches r =
        match r with
        | Some a -> oracle && Csp.consistent csp a
        | None -> not oracle
      in
      sat_matches td && sat_matches ghd)

let prop_sat_via_ghd =
  QCheck.Test.make ~count:40 ~name:"random 3-SAT via GHD = backtracking"
    QCheck.(make QCheck.Gen.(pair int (3 -- 6)))
    (fun (seed, n_vars) ->
      let rng = Random.State.make [| seed |] in
      let n_clauses = 2 + Random.State.int rng 8 in
      let clauses =
        List.init n_clauses (fun _ ->
            List.init 3 (fun _ ->
                let v = 1 + Random.State.int rng n_vars in
                if Random.State.bool rng then v else -v))
      in
      let csp = Models.sat clauses ~n_vars in
      let oracle = Csp.solve_backtracking csp <> None in
      match Solver.solve csp ~strategy:`Ghd ~seed with
      | Some a -> oracle && Csp.consistent csp a
      | None -> not oracle)


(* --- adaptive consistency (bucket elimination solving) --- *)

let test_adaptive_australia () =
  let csp = Models.australia () in
  match Adaptive.solve_auto csp with
  | Some a -> check "consistent" true (Csp.consistent csp a)
  | None -> Alcotest.fail "Australia is 3-colorable"

let test_adaptive_unsat () =
  let unsat = Models.sat [ [ 1 ]; [ -1 ] ] ~n_vars:1 in
  check "unsat" true (Adaptive.solve_auto unsat = None)

let test_adaptive_rejects_bad_ordering () =
  let csp = Models.australia () in
  check "bad ordering" true
    (try
       ignore (Adaptive.solve csp [| 0; 0; 1; 2; 3; 4; 5 |]);
       false
     with Invalid_argument _ -> true)

let prop_adaptive_agrees =
  QCheck.Test.make ~count:60 ~name:"adaptive consistency = backtracking"
    QCheck.(make QCheck.Gen.(pair int (0 -- 1000)))
    (fun (seed, tseed) ->
      let tightness = float_of_int tseed /. 1000.0 in
      let csp =
        Models.random_csp ~seed ~n_vars:6 ~domain_size:3 ~n_constraints:5
          ~arity:2 ~tightness
      in
      let oracle = Csp.solve_backtracking csp <> None in
      (* any ordering must give the same satisfiability *)
      let rng = Random.State.make [| seed |] in
      let sigma = Hd_core.Ordering.random rng 6 in
      match Adaptive.solve csp sigma with
      | Some a -> oracle && Csp.consistent csp a
      | None -> not oracle)



let test_relation_errors () =
  check "dup scope rejected" true
    (try
       ignore (Qrelation.make ~scope:[| 1; 1 |] []);
       false
     with Invalid_argument _ -> true);
  check "arity mismatch rejected" true
    (try
       ignore (Qrelation.make ~scope:[| 0; 1 |] [ [| 3 |] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.check_raises "value outside scope" Not_found (fun () ->
      ignore (Qrelation.position r_ab 9));
  Alcotest.check_raises "bag outside every scope" Not_found (fun () ->
      ignore (Join_tree.bag [ r_ab ] ~scope:[| 9 |]))

let test_relation_equal () =
  let a = Qrelation.make ~scope:[| 0; 1 |] [ [| 1; 2 |]; [| 3; 4 |] ] in
  let b = Qrelation.make ~scope:[| 0; 1 |] [ [| 3; 4 |]; [| 1; 2 |] ] in
  check "order-insensitive equal" true (Qrelation.equal a b);
  let c = Qrelation.make ~scope:[| 0; 1 |] [ [| 1; 2 |] ] in
  check "not equal" false (Qrelation.equal a c)

let test_count_unsat_zero () =
  let unsat = Models.sat [ [ 1 ]; [ -1 ] ] ~n_vars:1 in
  let h = Csp.hypergraph unsat in
  let td = Td.of_ordering_hypergraph h [| 0 |] in
  check_int "unsat counts 0" 0 (Solver.count_with_td unsat td)

let test_adaptive_queens () =
  check "adaptive solves 5-queens" true
    (Adaptive.solve_auto (Models.n_queens 5) <> None);
  check "adaptive rejects 3-queens" true
    (Adaptive.solve_auto (Models.n_queens 3) = None)

let prop_join_associative_cardinality =
  QCheck.Test.make ~count:60 ~name:"join associativity (cardinality)"
    QCheck.(make QCheck.Gen.(pair int int))
    (fun (s1, s2) ->
      let rng = Random.State.make [| s1; s2 |] in
      let mk = random_relation rng ~max_rows:5 in
      let a = mk [| 0; 1 |] and b = mk [| 1; 2 |] and c = mk [| 2; 3 |] in
      Qrelation.cardinality (join (join a b) c)
      = Qrelation.cardinality (join a (join b c)))

let prop_semijoin_idempotent =
  QCheck.Test.make ~count:60 ~name:"semijoin idempotent"
    QCheck.(make QCheck.Gen.(pair int int))
    (fun (s1, s2) ->
      let rng = Random.State.make [| s1; s2 |] in
      let a = random_relation rng ~max_rows:5 [| 0; 1 |]
      and b = random_relation rng ~max_rows:5 [| 1; 2 |] in
      let once = semijoin a b in
      Qrelation.equal once (semijoin once b))

(* --- model counting on junction trees --- *)

let test_count_australia () =
  let csp = Models.australia () in
  let h = Csp.hypergraph csp in
  let rng = Random.State.make [| 4 |] in
  let sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
  let td = Td.of_ordering_hypergraph h sigma in
  check_int "count via TD" 18 (Solver.count_with_td csp td)

(* CSP solving runs on the query layer's columnar kernel: its semijoin
   passes show up under the Colexec counters *)
let test_count_on_shared_kernel () =
  let csp = Models.australia () in
  let h = Csp.hypergraph csp in
  let rng = Random.State.make [| 4 |] in
  let sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
  let td = Td.of_ordering_hypergraph h sigma in
  let value name = Obs.Counter.value (Obs.Counter.make name) in
  Obs.enable ();
  Obs.reset ();
  let count = Solver.count_with_td csp td in
  let semijoins = value "query.selvec_semijoins" in
  let join_tuples = value "query.radix_join_tuples" in
  Obs.disable ();
  check_int "count via TD" 18 count;
  check "semijoins on the selection-vector kernel" true (semijoins > 0);
  check "bags joined radix-wise" true (join_tuples > 0)

let test_count_queens () =
  let csp = Models.n_queens 5 in
  let h = Csp.hypergraph csp in
  let rng = Random.State.make [| 4 |] in
  let sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
  let td = Td.of_ordering_hypergraph h sigma in
  check_int "5-queens count via TD" 10 (Solver.count_with_td csp td)

(* known closed-form model counts: a path of binary [<>] constraints
   (alpha-acyclic) has d.(d-1)^(n-1) models; the [<>] triangle (cyclic)
   has d.(d-1).(d-2).  These pin down the keyed-sum counting in
   Join_tree.count_solutions and the bag-join counting in
   Solver.count_with_td against closed forms rather than against
   another solver. *)

let neq_relation i j d =
  let tuples = ref [] in
  for a = 0 to d - 1 do
    for b = 0 to d - 1 do
      if a <> b then tuples := [| a; b |] :: !tuples
    done
  done;
  Qrelation.make ~scope:[| i; j |] !tuples

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

let test_count_chain_known () =
  let n = 5 and d = 3 in
  let domains = Array.make n (Array.init d Fun.id) in
  let cons = List.init (n - 1) (fun i -> neq_relation i (i + 1) d) in
  let csp = Csp.make ~domains cons in
  let expected = d * pow (d - 1) (n - 1) in
  check_int "exhaustive" expected (Csp.count_solutions csp);
  let h = Csp.hypergraph csp in
  let rng = Random.State.make [| 7 |] in
  let sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
  let td = Td.of_ordering_hypergraph h sigma in
  check_int "count via TD" expected (Solver.count_with_td csp td);
  (* the constraints themselves form a path join tree *)
  let jt =
    {
      Join_tree.rels = Array.of_list cons;
      parent = Array.init (n - 1) (fun i -> i - 1);
    }
  in
  check "is a join tree" true (Join_tree.is_join_tree jt);
  check_int "count on the join tree" expected (Join_tree.count_solutions jt);
  (match Join_tree.solve jt ~n_vars:n with
  | Some a -> check "acyclic_solve solution consistent" true (Csp.consistent csp a)
  | None -> Alcotest.fail "expected a solution");
  match Solver.solve_if_acyclic csp with
  | Some (Some a) -> check "solve_if_acyclic consistent" true (Csp.consistent csp a)
  | _ -> Alcotest.fail "chain should be recognised as acyclic"

let test_count_triangle_known () =
  let d = 3 in
  let domains = Array.make 3 (Array.init d Fun.id) in
  let cons =
    [ neq_relation 0 1 d; neq_relation 1 2 d; neq_relation 0 2 d ]
  in
  let csp = Csp.make ~domains cons in
  let expected = d * (d - 1) * (d - 2) in
  check_int "exhaustive" expected (Csp.count_solutions csp);
  check "triangle is cyclic" true (Solver.solve_if_acyclic csp = None);
  let h = Csp.hypergraph csp in
  let rng = Random.State.make [| 7 |] in
  let sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
  let td = Td.of_ordering_hypergraph h sigma in
  check_int "count via TD" expected (Solver.count_with_td csp td);
  match Solver.solve_with_td csp td with
  | Some a -> check "solve_with_td consistent" true (Csp.consistent csp a)
  | None -> Alcotest.fail "triangle with 3 colours is satisfiable"

let prop_count_agrees =
  QCheck.Test.make ~count:50 ~name:"TD counting = exhaustive counting"
    QCheck.(make QCheck.Gen.(pair int (0 -- 1000)))
    (fun (seed, tseed) ->
      let tightness = float_of_int tseed /. 1000.0 in
      let csp =
        Models.random_csp ~seed ~n_vars:5 ~domain_size:3 ~n_constraints:4
          ~arity:2 ~tightness
      in
      let h = Csp.hypergraph csp in
      let rng = Random.State.make [| seed |] in
      let sigma = Hd_core.Ordering.random rng 5 in
      let td = Td.of_ordering_hypergraph h sigma in
      Solver.count_with_td csp td = Csp.count_solutions csp)

let () =
  Alcotest.run "csp"
    [
      ( "relations",
        [
          Alcotest.test_case "basics" `Quick test_relation_basics;
          Alcotest.test_case "join" `Quick test_relation_join;
          Alcotest.test_case "semijoin" `Quick test_relation_semijoin;
          Alcotest.test_case "project/select/full" `Quick test_relation_project_select_full;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_join_commutes;
              prop_join_associative_cardinality;
              prop_semijoin_idempotent;
            ]
        @ [
            Alcotest.test_case "errors" `Quick test_relation_errors;
            Alcotest.test_case "equality" `Quick test_relation_equal;
          ] );
      ( "models",
        [
          Alcotest.test_case "australia (Example 1)" `Quick test_australia;
          Alcotest.test_case "example 5" `Quick test_example5;
          Alcotest.test_case "sat (Example 2)" `Quick test_sat_model;
          Alcotest.test_case "n-queens" `Quick test_nqueens;
        ] );
      ( "acyclic solving",
        [
          Alcotest.test_case "path join tree" `Quick test_acyclic_solving_figure;
          Alcotest.test_case "unsat" `Quick test_acyclic_unsat;
        ] );
      ( "counting",
        [
          Alcotest.test_case "australia" `Quick test_count_australia;
          Alcotest.test_case "on the shared join kernel" `Quick
            test_count_on_shared_kernel;
          Alcotest.test_case "5-queens" `Quick test_count_queens;
          Alcotest.test_case "unsat counts zero" `Quick test_count_unsat_zero;
          Alcotest.test_case "chain of <> (closed form)" `Quick
            test_count_chain_known;
          Alcotest.test_case "cyclic <> triangle (closed form)" `Quick
            test_count_triangle_known;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_count_agrees ] );
      ( "adaptive consistency",
        [
          Alcotest.test_case "australia" `Quick test_adaptive_australia;
          Alcotest.test_case "unsat" `Quick test_adaptive_unsat;
          Alcotest.test_case "bad ordering rejected" `Quick test_adaptive_rejects_bad_ordering;
          Alcotest.test_case "n-queens" `Quick test_adaptive_queens;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_adaptive_agrees ] );
      ( "decomposition solving",
        [
          Alcotest.test_case "australia" `Quick test_solve_australia_from_decompositions;
          Alcotest.test_case "example 5" `Quick test_solve_example5_from_decompositions;
          Alcotest.test_case "explicit decompositions" `Quick test_solve_explicit_decompositions;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_decomposition_solving_agrees; prop_sat_via_ghd ] );
    ]
