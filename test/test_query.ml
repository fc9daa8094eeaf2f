module Cq = Hd_query.Cq
module Db = Hd_query.Db
module Intern = Hd_query.Intern
module Qrelation = Hd_query.Qrelation
module Y = Hd_query.Yannakakis
module Bf = Hd_query.Brute_force
module Cx = Hd_query.Colexec
module Obs = Hd_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_answers = Alcotest.(check (list (array string)))
let sorted l = List.sort compare l

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || at (i + 1)
  in
  at 0

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let db_of_edges edges =
  let db = Db.create () in
  Db.add db ~name:"e" (List.map (fun (a, b) -> [| a; b |]) edges);
  db

let triangle_q = Cq.parse_string "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X)."
let two_hop_q = Cq.parse_string "ans(X,Z) :- e(X,Y), e(Y,Z)."
let four_cycle_q =
  Cq.parse_string "ans(W,X,Y,Z) :- e(W,X), e(X,Y), e(Y,Z), e(Z,W)."

let five_cycle_q =
  Cq.parse_string "ans(A,B,C,D,E) :- e(A,B), e(B,C), e(C,D), e(D,E), e(E,A)."

(* a directed cycle through [cycle]'s vertices, plus a long pendant
   chain of non-cycle edges hanging off its last vertex: the graph's
   only cycles of that length are the cycle's rotations *)
let cycle_plus_chain cycle k =
  let n = List.length cycle in
  let vertex i =
    if i < 0 then List.nth cycle (n - 1) else Printf.sprintf "p%d" i
  in
  let chain = List.init k (fun i -> (vertex (i - 1), vertex i)) in
  List.mapi (fun i u -> (u, List.nth cycle ((i + 1) mod n))) cycle @ chain

let triangle_plus_chain = cycle_plus_chain [ "a"; "b"; "c" ]

let modes_agree ?(methods = [ Y.Auto; Y.Min_fill ]) db q =
  let expected = sorted (Bf.answers db q) in
  let expected_count = Bf.count db q in
  let expected_bool = Bf.boolean db q in
  List.iter
    (fun method_ ->
      let a = Y.run ~method_ ~mode:Y.Answers db q in
      check_answers "answers" expected (sorted a.Y.answers);
      check_int "answers count field" expected_count a.Y.count;
      let c = Y.run ~method_ ~mode:Y.Count db q in
      check_int "count" expected_count c.Y.count;
      let b = Y.run ~method_ ~mode:Y.Boolean db q in
      check "boolean" expected_bool b.Y.nonempty)
    methods

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_basics () =
  let q = Cq.parse_string "ans(X,Y) :- r(X,Z), s(Z,Y)." in
  Alcotest.(check string) "head pred" "ans" q.Cq.head_pred;
  Alcotest.(check (array string)) "head" [| "X"; "Y" |] q.Cq.head;
  check_int "atoms" 2 (List.length q.Cq.body);
  Alcotest.(check (array string)) "vars" [| "X"; "Z"; "Y" |] (Cq.variables q);
  (* constants, quoted constants, multi-line atoms, comments *)
  let q =
    Cq.parse_string
      "ans(X) :-\n  % comment\n  e(a, X),\n  e(X,\n    \"b c\")."
  in
  check_int "atoms" 2 (List.length q.Cq.body);
  (match (List.hd q.Cq.body).Cq.args.(0) with
  | Cq.Const "a" -> ()
  | _ -> Alcotest.fail "expected constant a");
  (match (List.nth q.Cq.body 1).Cq.args.(1) with
  | Cq.Const "b c" -> ()
  | _ -> Alcotest.fail "expected quoted constant");
  (* boolean-style empty head *)
  let q = Cq.parse_string "ok() :- e(X,Y)." in
  Alcotest.(check (array string)) "empty head" [||] q.Cq.head

let expect_parse_error ?(substring = "") text =
  match Cq.parse_string text with
  | _ -> Alcotest.failf "expected a parse failure for %S" text
  | exception Failure msg ->
      if substring <> "" then
        check
          (Printf.sprintf "error %S mentions %S" msg substring)
          true
          (contains msg substring)

let test_parse_errors () =
  expect_parse_error ~substring:"unsafe" "ans(X,W) :- e(X,Y).";
  expect_parse_error ~substring:"line 2" "ans(X) :-\n e(X,Y";
  expect_parse_error ~substring:"must be a variable" "ans(a) :- e(a,Y).";
  expect_parse_error ":- e(X,Y).";
  expect_parse_error "ans(X) e(X,Y)."

let test_hypergraph_extraction () =
  let h = Cq.hypergraph triangle_q in
  check_int "vertices" 3 (Hd_hypergraph.Hypergraph.n_vertices h);
  check_int "edges" 3 (Hd_hypergraph.Hypergraph.n_edges h);
  check "cyclic" false (Hd_hypergraph.Acyclicity.is_acyclic h);
  let h = Cq.hypergraph two_hop_q in
  check "acyclic" true (Hd_hypergraph.Acyclicity.is_acyclic h);
  (* ground atoms contribute no hyperedge *)
  let q = Cq.parse_string "ans(X) :- e(a,b), e(a,X)." in
  check_int "one edge" 1
    (Hd_hypergraph.Hypergraph.n_edges (Cq.hypergraph q))

(* ------------------------------------------------------------------ *)
(* Qrelation                                                           *)
(* ------------------------------------------------------------------ *)

let qr scope rows = Qrelation.make ~scope rows

(* the reference algebra: nested-loop natural join and semijoin over
   row lists, independent of the Colexec kernel they check *)
let pos_of scope v =
  let rec go j =
    if j = Array.length scope then None
    else if scope.(j) = v then Some j
    else go (j + 1)
  in
  go 0

(* rows of scopes [sa] and [sb] agree on every shared attribute *)
let agree sa ra sb rb =
  let ok = ref true in
  Array.iteri
    (fun i v ->
      match pos_of sb v with Some j when ra.(i) <> rb.(j) -> ok := false | _ -> ())
    sa;
  !ok

(* [b]'s attributes outside [a]'s scope *)
let private_attrs a b =
  List.filter
    (fun v -> pos_of (Qrelation.scope a) v = None)
    (Array.to_list (Qrelation.scope b))

let nl_join a b =
  let sa = Qrelation.scope a and sb = Qrelation.scope b in
  let priv = Array.of_list (private_attrs a b) in
  let extra rb = Array.map (fun v -> rb.(Option.get (pos_of sb v))) priv in
  qr (Array.append sa priv)
    (List.concat_map
       (fun ra ->
         List.filter_map
           (fun rb ->
             if agree sa ra sb rb then Some (Array.append ra (extra rb))
             else None)
           (Qrelation.rows b))
       (Qrelation.rows a))

let nl_semijoin a b =
  let sa = Qrelation.scope a and sb = Qrelation.scope b in
  qr sa
    (List.filter
       (fun ra -> List.exists (fun rb -> agree sa ra sb rb) (Qrelation.rows b))
       (Qrelation.rows a))

(* decode a selection vector into the selected rows *)
let rows_of_sel r sel = Array.to_list (Array.map (Qrelation.row r) sel)

(* the join-project of whole relations, as a bag joins its atoms *)
let join_all ?par rels ~scope =
  Cx.join_project ?par (List.map (fun r -> (r, Cx.all_rows r)) rels) ~scope

(* the same operators through the columnar kernel *)
let cx_join a b =
  join_all [ a; b ]
    ~scope:(Array.append (Qrelation.scope a) (Array.of_list (private_attrs a b)))

let cx_semijoin a b =
  let shared =
    Array.of_list
      (List.filter
         (fun v -> pos_of (Qrelation.scope b) v <> None)
         (Array.to_list (Qrelation.scope a)))
  in
  qr (Qrelation.scope a)
    (rows_of_sel a
       (Cx.semijoin
          ~probe:(a, Cx.all_rows a, Qrelation.positions a shared)
          ~build:(b, Cx.all_rows b, Qrelation.positions b shared)
          ()))

let test_qrelation_basics () =
  let r = qr [| 0; 1 |] [ [| 1; 2 |]; [| 1; 3 |]; [| 1; 2 |] ] in
  check_int "dedup" 2 (Qrelation.cardinality r);
  check "mem" true (Qrelation.mem r [| 1; 3 |]);
  check "not mem" false (Qrelation.mem r [| 3; 1 |]);
  check_int "get" 3 (Qrelation.get r 1 1);
  check_int "position" 1 (Qrelation.position r 1);
  check "row" true (Qrelation.row r 1 = [| 1; 3 |])

(* hand-computed cases pin down both the nested-loop reference and the
   columnar kernel *)
let test_qrelation_join_semijoin () =
  List.iter
    (fun (join, semijoin) ->
      let a = qr [| 0; 1 |] [ [| 1; 2 |]; [| 1; 3 |]; [| 2; 3 |] ] in
      let b = qr [| 1; 2 |] [ [| 2; 5 |]; [| 3; 6 |] ] in
      let j = join a b in
      Alcotest.(check (array int)) "join scope" [| 0; 1; 2 |] (Qrelation.scope j);
      check_int "join size" 3 (Qrelation.cardinality j);
      check "join tuple" true (Qrelation.mem j [| 1; 2; 5 |]);
      (* disjoint scopes: cartesian product *)
      let c = qr [| 7 |] [ [| 9 |]; [| 8 |] ] in
      check_int "cartesian" 6 (Qrelation.cardinality (join a c));
      let s = semijoin a (qr [| 1; 2 |] [ [| 2; 5 |] ]) in
      check_int "semijoin filters" 1 (Qrelation.cardinality s);
      check "kept" true (Qrelation.mem s [| 1; 2 |]);
      (* semijoin against an empty disjoint relation empties *)
      check "empty disjoint" true (Qrelation.is_empty (semijoin a (qr [| 7 |] [])));
      check_int "nonempty disjoint keeps all" 3
        (Qrelation.cardinality (semijoin a c)))
    [ (nl_join, nl_semijoin); (cx_join, cx_semijoin) ]

let test_qrelation_project_select () =
  let a = qr [| 0; 1 |] [ [| 1; 2 |]; [| 1; 3 |]; [| 2; 3 |] ] in
  check_int "project dedups" 2
    (Qrelation.cardinality (join_all [ a ] ~scope:[| 0 |]));
  (* selection: a semijoin with a unary relation *)
  check_int "select" 2
    (Qrelation.cardinality (cx_semijoin a (qr [| 0 |] [ [| 1 |] ])));
  check "equal" true
    (Qrelation.equal a (qr [| 0; 1 |] [ [| 2; 3 |]; [| 1; 3 |]; [| 1; 2 |] ]))

(* the nested-loop reference of a join-project: a left-deep fold of
   [nl_join] projected onto [scope], first occurrences kept *)
let nl_join_project rels ~scope =
  let j = List.fold_left nl_join (List.hd rels) (List.tl rels) in
  let ps = Array.map (fun v -> Option.get (pos_of (Qrelation.scope j) v)) scope in
  qr scope
    (List.map (fun row -> Array.map (Array.get row) ps) (Qrelation.rows j))

(* the columnar kernel and the nested-loop reference implement the
   same algebra.  A join-project of 2-4 relations over attributes 0-4
   (shared, private and disjoint ones, so cross products occur) on
   random selections equals the reference row for row, in order, and
   so does the same pass with a 3-worker scheduler *)
let prop_colexec_matches_nested_loop =
  QCheck.Test.make ~count:200 ~name:"joins = nested loop"
    QCheck.(make QCheck.Gen.(pair int int))
    (fun (s1, s2) ->
      let rng = Random.State.make [| s1; s2 |] in
      let int n = Random.State.int rng n in
      let mk scope =
        qr scope
          (List.init (int 8) (fun _ -> Array.init (Array.length scope) (fun _ -> int 3)))
      in
      let a = mk [| 0; 1 |] and b = mk [| 1; 2 |] in
      let random_subset l = List.filter (fun _ -> int 2 = 0) l in
      let rels =
        List.init
          (2 + int 3)
          (fun _ ->
            let scope =
              match random_subset [ 0; 1; 2; 3; 4 ] with
              | [] -> [| int 5 |]
              | l -> Array.of_list (List.filteri (fun i _ -> i < 3) l)
            in
            let r = mk scope in
            let sel =
              if int 3 = 0 then Cx.all_rows r
              else
                Array.of_list
                  (random_subset (List.init (Qrelation.cardinality r) Fun.id))
            in
            (r, sel))
      in
      let union =
        List.sort_uniq compare
          (List.concat_map (fun (r, _) -> Array.to_list (Qrelation.scope r)) rels)
      in
      let scope =
        List.map (fun v -> (int 100, v)) (random_subset union)
        |> List.sort compare |> List.map snd |> Array.of_list
      in
      let expected =
        nl_join_project
          (List.map (fun (r, sel) -> qr (Qrelation.scope r) (rows_of_sel r sel)) rels)
          ~scope
      in
      let same r =
        Qrelation.scope r = scope && Qrelation.rows r = Qrelation.rows expected
      in
      sorted (Qrelation.rows (cx_join a b)) = sorted (Qrelation.rows (nl_join a b))
      && sorted (Qrelation.rows (cx_semijoin a b))
         = sorted (Qrelation.rows (nl_semijoin a b))
      && same (Cx.join_project rels ~scope)
      && Hd_engine.Scheduler.with_scheduler ~workers:3 (fun s ->
             same (Cx.join_project ~par:s rels ~scope)))

(* ------------------------------------------------------------------ *)
(* Db loading                                                          *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir =
    Filename.temp_file "hd_query_test" ""
  in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun entry -> Sys.remove (Filename.concat dir entry))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let test_db_load () =
  with_temp_dir @@ fun dir ->
  write_file (Filename.concat dir "e.csv")
    "# comment\na,b\nb,c\n\nc,a\n";
  write_file (Filename.concat dir "color.tsv") "a\tred\nb\tblue\n";
  let db = Db.create () in
  Db.load_dir db dir;
  Alcotest.(check (list string)) "relations" [ "color"; "e" ]
    (Db.relation_names db);
  (match Db.find db "e" with
  | Some r -> check_int "e rows" 3 (Qrelation.cardinality r)
  | None -> Alcotest.fail "missing e");
  (match Db.find db "color" with
  | Some r -> check_int "color rows" 2 (Qrelation.cardinality r)
  | None -> Alcotest.fail "missing color");
  (* a query joining both loaded relations *)
  let q = Cq.parse_string "ans(X,C) :- e(X,Y), color(Y,C)." in
  let r = Y.run ~mode:Y.Answers db q in
  check_answers "join across files"
    (sorted [ [| "c"; "red" |]; [| "a"; "blue" |] ])
    (sorted r.Y.answers)

let test_db_load_errors () =
  with_temp_dir @@ fun dir ->
  write_file (Filename.concat dir "bad.csv") "a,b\nc\n";
  let db = Db.create () in
  (match Db.load_dir db dir with
  | () -> Alcotest.fail "expected ragged-row failure"
  | exception Failure msg -> check "mentions line" true (contains msg "line 2"));
  (* unknown relation in a query *)
  let db = db_of_edges [ ("a", "b") ] in
  check "unknown relation" true
    (match Y.run ~mode:Y.Boolean db (Cq.parse_string "ans(X) :- f(X,Y).") with
    | _ -> false
    | exception Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Engine vs brute force                                               *)
(* ------------------------------------------------------------------ *)

let test_triangle_all_modes () =
  let db =
    db_of_edges
      [
        ("a", "b"); ("b", "c"); ("c", "a");
        ("b", "d"); ("d", "e"); ("e", "b");
        ("c", "d"); ("d", "a");
      ]
  in
  modes_agree ~methods:[ Y.Auto; Y.Min_fill; Y.Bb_ghw ] db triangle_q;
  (* the plan really is cyclic: a GHD of width >= 2 *)
  let r = Y.run ~mode:Y.Answers db triangle_q in
  check "not acyclic" false r.Y.stats.Y.acyclic;
  check "width >= 2" true (r.Y.stats.Y.width >= 2)

let test_four_cycle_all_modes () =
  let q = Cq.parse_string "ans(W,X,Y,Z) :- e(W,X), e(X,Y), e(Y,Z), e(Z,W)." in
  let db =
    db_of_edges
      [
        ("a", "b"); ("b", "c"); ("c", "d"); ("d", "a");
        ("b", "a"); ("c", "b"); ("a", "c"); ("d", "b");
      ]
  in
  modes_agree db q

let test_acyclic_query () =
  let db = db_of_edges (triangle_plus_chain 5) in
  modes_agree db two_hop_q;
  let r = Y.run ~mode:Y.Count db two_hop_q in
  check "acyclic plan" true r.Y.stats.Y.acyclic;
  check_int "acyclic width" 1 r.Y.stats.Y.width

let test_projection_and_constants () =
  let db = db_of_edges (triangle_plus_chain 4) in
  List.iter
    (fun text -> modes_agree db (Cq.parse_string text))
    [
      "ans(X) :- e(X,Y), e(Y,Z).";
      "ans(X) :- e(a,X).";
      "ans(X) :- e(X,X).";
      "ans(X,Y) :- e(X,Y), e(Y,X).";
      "ok() :- e(a,b), e(b,c).";
      "ans(X) :- e(zzz,X).";
    ]

let test_empty_results () =
  let db = db_of_edges [ ("a", "b"); ("b", "c") ] in
  let r = Y.run ~mode:Y.Answers db triangle_q in
  check "no triangles" false r.Y.nonempty;
  check_answers "empty" [] r.Y.answers;
  check_int "count 0" 0 (Y.run ~mode:Y.Count db triangle_q).Y.count;
  check "boolean false" false (Y.run ~mode:Y.Boolean db triangle_q).Y.nonempty

(* random instances, several query shapes, every mode, both the
   acyclic-aware and the forced-GHD planner *)
let prop_matches_brute_force =
  let queries =
    [
      triangle_q;
      two_hop_q;
      Cq.parse_string "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X), e(X,Z).";
      Cq.parse_string "ans(X) :- e(X,Y), e(Y,X).";
      Cq.parse_string
        "ans(W,Z) :- e(W,X), e(X,Y), e(Y,Z), e(Z,W), e(W,Y).";
      (* cycles whose bags need connector atoms or a product *)
      four_cycle_q;
      five_cycle_q;
      Cq.parse_string "ans(W,X,Y,Z) :- e(W,X), e(X,Y), e(Y,Z), e(Z,W), e(W,Y).";
      (* two relations of unequal size *)
      Cq.parse_string
        "ans(A,B,C,D,E) :- e(A,B), f(B,C), e(C,D), f(D,E), e(E,A).";
    ]
  in
  QCheck.Test.make ~count:60 ~name:"hd_query = brute force on random graphs"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      let random_edges m =
        List.init m (fun _ ->
            [|
              Printf.sprintf "v%d" (Random.State.int rng n);
              Printf.sprintf "v%d" (Random.State.int rng n);
            |])
      in
      let m = 1 + Random.State.int rng 14 in
      let db = Db.create () in
      Db.add db ~name:"e" (random_edges m);
      Db.add db ~name:"f" (random_edges (2 * m));
      List.for_all
        (fun q ->
          let expected = sorted (Bf.answers db q) in
          List.for_all
            (fun method_ ->
              sorted (Y.run ~method_ ~mode:Y.Answers db q).Y.answers = expected
              && (Y.run ~method_ ~mode:Y.Count db q).Y.count
                 = List.length expected
              && (Y.run ~method_ ~mode:Y.Boolean db q).Y.nonempty
                 = (expected <> []))
            [ Y.Auto; Y.Min_fill ])
        queries)

(* a complete digraph on [n] vertices, no loops *)
let complete_digraph n =
  List.concat
    (List.init n (fun u ->
         List.filter_map
           (fun v ->
             if u = v then None
             else Some (Printf.sprintf "v%d" u, Printf.sprintf "v%d" v))
           (List.init n Fun.id)))

(* a random digraph on [n] vertices, out-degree [k] (repeats merged) *)
let sparse_digraph n k =
  let rng = Random.State.make [| n; k |] in
  List.concat
    (List.init n (fun u ->
         List.init k (fun _ ->
             ( Printf.sprintf "v%d" u,
               Printf.sprintf "v%d" (Random.State.int rng n) ))))

let products_counted f =
  Obs.enable ();
  Obs.reset ();
  let x = f () in
  let n = Obs.Counter.value (Obs.Counter.make "query.bag_products") in
  Obs.disable ();
  (x, n)

(* a GHD of [h] with bags [bags] (vertex lists), parents [parent] and
   labels [lambda], materialised over [atoms] *)
let join_tree_of h ~bags ~parent ~lambda atoms =
  let n = Hd_hypergraph.Hypergraph.n_vertices h in
  let td =
    Hd_core.Tree_decomposition.make
      ~bags:(Array.map (Hd_graph.Bitset.of_list n) bags)
      ~parent
  in
  let ghd = Hd_core.Ghd.make ~td ~lambda in
  check "valid GHD" true (Hd_core.Ghd.valid h ghd);
  Hd_query.Join_tree.of_ghd h ghd atoms

(* connected bag plans: a bag joins lambda, the atoms inside it and
   connecting atom paths, so it is a product only where no atom path
   exists; an outside lambda atom leaves it only for an atom that
   holds all of its bag variables, so the bag keeps its width bound *)
let test_bag_products () =
  let products db ?ordering q =
    let r, n =
      products_counted (fun () -> Y.run ?ordering ~mode:Y.Count db q)
    in
    check_int "count = brute force" (Bf.count db q) r.Y.count;
    n
  in
  let sparse = db_of_edges (sparse_digraph 24 2) in
  check_int "5-cycle, sparse: no products" 0 (products sparse five_cycle_q);
  (* dense, eliminated around the cycle: the bag {A,D,E} joins the
     path D-E-F-A rather than e(D,E) x e(F,A) *)
  let six_cycle_q =
    Cq.parse_string
      "ans(A,B,C,D,E,F) :- e(A,B), e(B,C), e(C,D), e(D,E), e(E,F), e(F,A)."
  in
  let dense = db_of_edges (complete_digraph 5) in
  check_int "6-cycle, complete: no products" 0
    (products dense ~ordering:[| 0; 1; 2; 3; 4; 5 |] six_cycle_q);
  (* lambda = {r(A,B,C,X)} on the bag {A,B,C}, whose inside atoms
     e1(A,B), e2(B,C) cover it with two atoms: r stays in the join, so
     the bag is r's one-row projection, not the 101-row e1 x_B e2 *)
  let h =
    Hd_hypergraph.Hypergraph.create ~n:4 [ [ 0; 1; 2; 3 ]; [ 0; 1 ]; [ 1; 2 ] ]
  in
  let fan row = [| 1; 1 |] :: List.init 10 row in
  let atoms =
    [|
      Qrelation.make ~scope:[| 0; 1; 2; 3 |] [ [| 1; 1; 1; 1 |] ];
      Qrelation.make ~scope:[| 0; 1 |] (fan (fun i -> [| i; 0 |]));
      Qrelation.make ~scope:[| 1; 2 |] (fan (fun j -> [| 0; j |]));
    |]
  in
  let t, n =
    products_counted (fun () ->
        join_tree_of h
          ~bags:[| [ 0; 1; 2 ]; [ 0; 1; 2; 3 ] |]
          ~parent:[| 1; -1 |]
          ~lambda:[| [| 0 |]; [| 0 |] |]
          atoms)
  in
  check_int "no products" 0 n;
  check_int "bag within lambda's projection" 1
    (Qrelation.cardinality t.Hd_query.Join_tree.rels.(0));
  check_int "one solution" 1 (Hd_query.Join_tree.count_solutions t);
  (* two atoms sharing no variable: their bag is a product *)
  let h = Hd_hypergraph.Hypergraph.create ~n:2 [ [ 0 ]; [ 1 ] ] in
  let unary k =
    Qrelation.make ~scope:[| k |] (List.init (3 - k) (fun i -> [| i |]))
  in
  let t, n =
    products_counted (fun () ->
        join_tree_of h ~bags:[| [ 0; 1 ] |] ~parent:[| -1 |]
          ~lambda:[| [| 0; 1 |] |]
          [| unary 0; unary 1 |])
  in
  check_int "disconnected bag: one product" 1 n;
  check_int "3 x 2 rows" 6
    (Qrelation.cardinality t.Hd_query.Join_tree.rels.(0))

(* two-relation query from the issue statement *)
let test_two_relations () =
  let db = Db.create () in
  Db.add db ~name:"r"
    [ [| "1"; "2" |]; [| "1"; "3" |]; [| "2"; "3" |]; [| "4"; "4" |] ];
  Db.add db ~name:"s" [ [| "2"; "9" |]; [| "3"; "9" |]; [| "4"; "7" |] ];
  modes_agree db (Cq.parse_string "ans(X,Y) :- r(X,Z), s(Z,Y).")

(* ------------------------------------------------------------------ *)
(* Columnar kernel (Colexec)                                           *)
(* ------------------------------------------------------------------ *)

let test_colexec_semijoin () =
  let a = qr [| 0; 1 |] [ [| 1; 2 |]; [| 1; 3 |]; [| 2; 3 |] ] in
  let b = qr [| 1; 2 |] [ [| 2; 5 |]; [| 3; 6 |] ] in
  (* shared attribute 1 = a's column 1 = b's column 0: the selection
     must pick exactly the rows the nested-loop semijoin keeps *)
  let sel =
    Cx.semijoin
      ~probe:(a, Cx.all_rows a, [| 1 |])
      ~build:(b, Cx.all_rows b, [| 0 |])
      ()
  in
  check "matches nested-loop semijoin" true
    (sorted (rows_of_sel a sel) = sorted (Qrelation.rows (nl_semijoin a b)));
  (* the base relation is untouched: selection vectors only *)
  check_int "base unchanged" 3 (Qrelation.cardinality a);
  (* restricting the build selection restricts the survivors *)
  let bsel = Cx.semijoin ~probe:(b, Cx.all_rows b, [| 0 |])
               ~build:(qr [| 1 |] [ [| 2 |] ], [| 0 |], [| 0 |]) () in
  let sel2 =
    Cx.semijoin ~probe:(a, Cx.all_rows a, [| 1 |]) ~build:(b, bsel, [| 0 |]) ()
  in
  check "restricted build" true
    (sorted (rows_of_sel a sel2) = sorted [ [| 1; 2 |] ])

let test_colexec_edge_cases () =
  let a = qr [| 0; 1 |] [ [| 1; 2 |]; [| 2; 3 |] ] in
  (* empty probe relation *)
  let e = qr [| 0; 1 |] [] in
  check_int "empty probe" 0
    (Array.length
       (Cx.semijoin ~probe:(e, Cx.all_rows e, [| 1 |])
          ~build:(a, Cx.all_rows a, [| 0 |]) ()));
  (* empty build side drops everything *)
  check_int "empty build" 0
    (Array.length
       (Cx.semijoin ~probe:(a, Cx.all_rows a, [| 1 |])
          ~build:(e, Cx.all_rows e, [| 0 |]) ()));
  (* disjoint scopes: the key is empty -- a nonempty build keeps all
     rows, an empty selection keeps none (cartesian semantics) *)
  let c = qr [| 7 |] [ [| 9 |]; [| 8 |] ] in
  check_int "disjoint nonempty keeps all" 2
    (Array.length
       (Cx.semijoin ~probe:(a, Cx.all_rows a, [||])
          ~build:(c, Cx.all_rows c, [||]) ()));
  check_int "disjoint empty selection drops all" 0
    (Array.length
       (Cx.semijoin ~probe:(a, Cx.all_rows a, [||]) ~build:(c, [||], [||]) ()));
  (* all-duplicate keys on both sides: one bucket holds everything *)
  let dup rows = qr [| 0; 1 |] (List.init rows (fun i -> [| 7; i |])) in
  let d1 = dup 40 and d2 = dup 17 in
  check_int "all-duplicate keys" 40
    (Array.length
       (Cx.semijoin
          ~probe:(d1, Cx.all_rows d1, [| 0 |])
          ~build:(d2, Cx.all_rows d2, [| 0 |]) ()));
  (* single-row relations (directory at its minimum size) *)
  let s1 = qr [| 0 |] [ [| 5 |] ] in
  check_int "singleton hit" 1
    (Array.length
       (Cx.semijoin ~probe:(s1, Cx.all_rows s1, [| 0 |])
          ~build:(s1, Cx.all_rows s1, [| 0 |]) ()))

let test_colexec_join_project () =
  let a = qr [| 0; 1 |] [ [| 1; 2 |]; [| 1; 3 |]; [| 2; 3 |] ] in
  let b = qr [| 1; 2 |] [ [| 2; 5 |]; [| 3; 6 |] ] in
  let j = join_all [ a; b ] ~scope:[| 0; 1; 2 |] in
  check "join matches nested loop" true
    (sorted (Qrelation.rows j) = sorted (Qrelation.rows (nl_join a b)));
  (* projection dedups *)
  let p = join_all [ a; b ] ~scope:[| 0 |] in
  check "project dedups" true
    (sorted (Qrelation.rows p) = sorted [ [| 1 |]; [| 2 |] ]);
  (* disjoint scopes: cartesian product *)
  let c = qr [| 7 |] [ [| 9 |]; [| 8 |] ] in
  check_int "cartesian" 6
    (Qrelation.cardinality (join_all [ a; c ] ~scope:[| 0; 1; 7 |]));
  (* empty operand *)
  check "empty operand" true
    (Qrelation.is_empty
       (join_all [ a; qr [| 1; 2 |] [] ] ~scope:[| 0; 1 |]));
  check "empty list rejected" true
    (match Cx.join_project [] ~scope:[| 0 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_colexec_index_keysum () =
  let r = qr [| 0; 1 |] [ [| 1; 2 |]; [| 1; 3 |]; [| 2; 3 |]; [| 1; 4 |] ] in
  let sel = Cx.all_rows r in
  let idx = Cx.Index.build r ~pos:[| 0 |] ~sel in
  let hits key =
    let acc = ref [] in
    Cx.Index.iter idx key (fun row -> acc := row :: !acc);
    List.length !acc
  in
  check_int "key 1" 3 (hits [| 1 |]);
  check_int "key 2" 1 (hits [| 2 |]);
  check_int "missing key" 0 (hits [| 99 |]);
  (* Keysum: weights accumulate per distinct key *)
  let ks =
    Cx.Keysum.build r ~pos:[| 0 |] ~sel
      ~weights:(Array.init (Array.length sel) (fun s -> s + 1))
  in
  (* selection slots 0,1,3 carry key 1 with weights 1,2,4 *)
  check_int "keysum 1" 7 (Cx.Keysum.find ks [| 1 |]);
  check_int "keysum 2" 3 (Cx.Keysum.find ks [| 2 |]);
  check_int "keysum missing" 0 (Cx.Keysum.find ks [| 42 |])

(* the partitioned-parallel columnar passes are byte-identical to the
   sequential ones — chunk boundaries depend only on the probe count,
   outputs concatenate in chunk order.  Every probe side here is above
   {!Cx.fork_rows}, so each parallel call forks several 2,048-row
   chunks, counted as scheduler tasks. *)
let test_colexec_parallel_identical () =
  Obs.enable ();
  let tasks = Obs.Counter.make "parallel.tasks" in
  let chunked label f =
    let before = Obs.Counter.value tasks in
    let v = f () in
    check (label ^ " ran several chunks") true
      (Obs.Counter.value tasks - before >= 2);
    v
  in
  Hd_engine.Scheduler.with_scheduler ~workers:3 (fun s ->
      let rng = Random.State.make [| 11 |] in
      let key () = Random.State.int rng 40 in
      (* a's first column keeps its rows distinct *)
      let a =
        qr [| 0; 1 |] (List.init (Cx.fork_rows + 5000) (fun i -> [| i; key () |]))
      in
      let b = qr [| 1; 2 |] (List.init 200 (fun _ -> [| key (); key () |])) in
      let seq_sel =
        Cx.semijoin
          ~probe:(a, Cx.all_rows a, [| 1 |])
          ~build:(b, Cx.all_rows b, [| 0 |])
          ()
      in
      let par_sel =
        chunked "semijoin" (fun () ->
            Cx.semijoin ~par:s
              ~probe:(a, Cx.all_rows a, [| 1 |])
              ~build:(b, Cx.all_rows b, [| 0 |])
              ())
      in
      check "parallel semijoin byte-identical" true (seq_sel = par_sel);
      let seq_j = join_all [ a; b ] ~scope:[| 0; 2 |] in
      let par_j =
        chunked "join-project" (fun () ->
            join_all ~par:s [ a; b ] ~scope:[| 0; 2 |])
      in
      check "parallel join-project byte-identical" true
        (Qrelation.rows seq_j = Qrelation.rows par_j);
      (* a deeper descent, and projections whose duplicates span
         chunks, so the chunk merge must drop them *)
      let c = qr [| 2; 3 |] (List.init 60 (fun _ -> [| key (); key () |])) in
      List.iter
        (fun scope ->
          let seq = join_all [ a; b; c ] ~scope in
          let par =
            chunked "three-way join-project" (fun () ->
                join_all ~par:s [ a; b; c ] ~scope)
          in
          check "parallel three-way join-project byte-identical" true
            (Qrelation.rows seq = Qrelation.rows par))
        [ [| 0; 3 |]; [| 3 |] ];
      (* end to end through Yannakakis: same answers, same counts,
         same reduction stats *)
      let db = db_of_edges (triangle_plus_chain (Cx.fork_rows + 3000)) in
      List.iter
        (fun q ->
          let seq_r = Y.run ~mode:Y.Answers db q in
          let par_r =
            chunked "Yannakakis" (fun () -> Y.run ~par:s ~mode:Y.Answers db q)
          in
          check_answers "parallel answers identical" (sorted seq_r.Y.answers)
            (sorted par_r.Y.answers);
          check_int "parallel count identical" seq_r.Y.count par_r.Y.count;
          check "parallel stats identical" true (seq_r.Y.stats = par_r.Y.stats))
        [ triangle_q; two_hop_q ])

(* the columnar engine agrees with brute force -- same answer
   multiset, Count and Boolean results, and a query.answers counter
   equal to the number of distinct answers -- on random cyclic and
   acyclic query shapes *)
let prop_columnar_matches_brute_force =
  let queries =
    [
      (* cyclic *)
      triangle_q;
      Cq.parse_string "ans(W,X,Y,Z) :- e(W,X), e(X,Y), e(Y,Z), e(Z,W).";
      Cq.parse_string "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X), e(X,Z).";
      (* acyclic *)
      two_hop_q;
      Cq.parse_string "ans(X,Z) :- e(X,Y), e(Z,Y).";
      Cq.parse_string "ans(X) :- e(a,X).";
    ]
  in
  QCheck.Test.make ~count:40 ~name:"columnar = brute force"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed; 7 |] in
      let m = 1 + Random.State.int rng 14 in
      let edges =
        List.init m (fun _ ->
            ( Printf.sprintf "v%d" (Random.State.int rng n),
              Printf.sprintf "v%d" (Random.State.int rng n) ))
      in
      let db = db_of_edges edges in
      let value name = Obs.Counter.value (Obs.Counter.make name) in
      List.for_all
        (fun q ->
          let expected = sorted (Bf.answers db q) in
          Obs.enable ();
          Obs.reset ();
          let r = Y.run ~mode:Y.Answers db q in
          let answers_ctr = value "query.answers" in
          Obs.disable ();
          sorted r.Y.answers = expected
          && r.Y.count = List.length expected
          && answers_ctr = List.length expected
          && (Y.run ~mode:Y.Count db q).Y.count = Bf.count db q
          && (Y.run ~mode:Y.Boolean db q).Y.nonempty = Bf.boolean db q)
        queries)

(* ------------------------------------------------------------------ *)
(* Multi-rule parsing (the --batch / bulk input format)                *)
(* ------------------------------------------------------------------ *)

let test_parse_multi () =
  let qs =
    Cq.parse_multi_string
      "t(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).\n\
       % a comment between rules\n\
       h(X,Z) :- e(X,Y), e(Y,Z).\n\
       ok() :- e(a,b)."
  in
  check_int "three rules" 3 (List.length qs);
  Alcotest.(check (list string)) "heads" [ "t"; "h"; "ok" ]
    (List.map (fun q -> q.Cq.head_pred) qs);
  check_int "empty input" 0 (List.length (Cq.parse_multi_string ""));
  check_int "only comments" 0
    (List.length (Cq.parse_multi_string "% nothing\n% here\n"));
  (* errors in a later rule are still reported with a position *)
  (match Cq.parse_multi_string "a(X) :- e(X,Y).\nb(X) :- e(X" with
  | _ -> Alcotest.fail "expected a parse failure"
  | exception Failure msg -> check "position" true (contains msg "line 2"));
  (* single-rule parse still rejects trailing input *)
  (match Cq.parse_string "a(X) :- e(X,Y). b(X) :- e(X,Y)." with
  | _ -> Alcotest.fail "expected trailing-input failure"
  | exception Failure msg -> check "trailing" true (contains msg "trailing"))

(* ------------------------------------------------------------------ *)
(* Db atom-relation cache                                              *)
(* ------------------------------------------------------------------ *)

let test_atom_cache () =
  let db = db_of_edges (triangle_plus_chain 3) in
  let value name = Obs.Counter.value (Obs.Counter.make name) in
  Obs.enable ();
  Obs.reset ();
  let r1 = Y.run ~mode:Y.Count db triangle_q in
  let misses1 = value "query.atom_cache_misses" in
  let hits1 = value "query.atom_cache_hits" in
  (* the same query again: every atom relation comes from the cache *)
  let r2 = Y.run ~mode:Y.Count db triangle_q in
  let misses2 = value "query.atom_cache_misses" in
  let hits2 = value "query.atom_cache_hits" in
  check_int "same count" r1.Y.count r2.Y.count;
  check "first run misses" true (misses1 > 0);
  check_int "second run misses nothing" misses1 misses2;
  check "second run hits" true (hits2 > hits1);
  (* mutating the db flushes the cache *)
  Db.add db ~name:"e" [ [| "x"; "y" |] ];
  let (_ : Y.result) = Y.run ~mode:Y.Count db triangle_q in
  let misses3 = value "query.atom_cache_misses" in
  Obs.disable ();
  check "add flushes cache" true (misses3 > misses2)

(* ------------------------------------------------------------------ *)
(* Observability: enumeration is backtrack-free after reduction        *)
(* ------------------------------------------------------------------ *)

let test_enumeration_no_dead_work () =
  (* only 4 answers (the rotations of the one 4-cycle), but a long
     pendant chain inflates the raw e relation and hence the
     unreduced bags -- the answer pass must still stay within the
     answers *)
  let edges = cycle_plus_chain [ "a"; "b"; "c"; "d" ] 40 in
  let db = db_of_edges edges in
  let value name = Obs.Counter.value (Obs.Counter.make name) in
  Obs.enable ();
  Obs.reset ();
  (* Count with the whole head weighs the reduced tree without a join,
     and shares Answers' plan, bags and semijoins: the join tuples
     Answers adds are the answer pass's bindings *)
  let (_ : Y.result) = Y.run ~mode:Y.Count db four_cycle_q in
  let counted = value "query.radix_join_tuples" in
  let r = Y.run ~mode:Y.Answers db four_cycle_q in
  let bindings = value "query.radix_join_tuples" - (2 * counted) in
  check_int "four rotations" 4 r.Y.count;
  check "semijoins ran" true (r.Y.stats.Y.semijoins > 0);
  check "reduction shrank the bags" true
    (r.Y.stats.Y.tuples_after_reduction < r.Y.stats.Y.tuples_materialized);
  (* the answer pass joins fully reduced selections: its bindings are
     bounded by answers x bags, never by the (much larger) non-answer
     intermediate tuples *)
  check "the answer pass joined bags" true (bindings >= r.Y.count);
  check "answer bindings bounded by answers" true
    (bindings <= r.Y.count * r.Y.stats.Y.bags);
  check "answer bindings independent of chain length" true
    (bindings < r.Y.stats.Y.tuples_materialized);
  (* solve: after the bottom-up pass its descent reads one row per bag
     and never dead-ends *)
  let q = four_cycle_q in
  let vars = Cq.variables q in
  let var_id v =
    let rec go i = if vars.(i) = v then i else go (i + 1) in
    go 0
  in
  let h = Cq.hypergraph q in
  let ghd =
    Hd_core.Ghd.of_tree_decomposition h
      (Hd_core.Tree_decomposition.simplify
         (Hd_core.Tree_decomposition.of_ordering_hypergraph h
            (Y.ordering_for ~method_:Y.Min_fill ~jobs:1 ~seed:42
               ~time_limit:10.0 h)))
      ~cover:`Exact
  in
  let atoms =
    Array.of_list
      (List.map (fun a -> Db.relation_for_atom db ~var_id a) q.Cq.body)
  in
  let t = Hd_query.Join_tree.of_ghd h ghd atoms in
  Obs.reset ();
  let solution = Hd_query.Join_tree.solve t ~n_vars:(Array.length vars) in
  let dead = value "query.enum_dead_ends" in
  let rows = value "query.enum_rows" in
  Obs.disable ();
  (match solution with
  | None -> Alcotest.fail "the 4-cycle has a solution"
  | Some env ->
      let at v = (Db.decode db [| env.(var_id v) |]).(0) in
      check "solution is a 4-cycle" true
        (List.for_all
           (fun a ->
             match a.Cq.args with
             | [| Cq.Var x; Cq.Var y |] -> List.mem (at x, at y) edges
             | _ -> false)
           q.Cq.body));
  check_int "no dead ends" 0 dead;
  check_int "one row per bag" (Array.length t.Hd_query.Join_tree.rels) rows

(* counts fail closed: a product of unary atoms over 32,768 values is
   counted exactly up to 2^60, and 2^75 raises instead of wrapping *)
let test_count_overflow () =
  let db = Db.create () in
  Db.add db ~name:"u" (List.init 32_768 (fun i -> [| string_of_int i |]));
  let product k =
    let vars = List.init k (Printf.sprintf "X%d") in
    Cq.parse_string
      (Printf.sprintf "ans(%s) :- %s." (String.concat "," vars)
         (String.concat ", " (List.map (Printf.sprintf "u(%s)") vars)))
  in
  check_int "2^60 counted" (1 lsl 60) (Y.run ~mode:Y.Count db (product 4)).Y.count;
  (match Y.run ~mode:Y.Count db (product 5) with
  | _ -> Alcotest.fail "a 2^75 count must not wrap"
  | exception Failure msg -> check "message names the overflow" true (contains msg "overflow"));
  check_int "checked sum" max_int (Cx.count_add (max_int - 1) 1);
  check "sum past max_int" true
    (match Cx.count_add max_int 1 with _ -> false | exception Failure _ -> true);
  check_int "checked product" (1 lsl 61) (Cx.count_mul (1 lsl 30) (1 lsl 31));
  check "product past max_int" true
    (match Cx.count_mul (1 lsl 31) (1 lsl 31) with
    | _ -> false
    | exception Failure _ -> true)

let () =
  Alcotest.run "query"
    [
      ( "parser",
        [
          Alcotest.test_case "basics" `Quick test_parse_basics;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "multi-rule batches" `Quick test_parse_multi;
          Alcotest.test_case "hypergraph extraction" `Quick
            test_hypergraph_extraction;
        ] );
      ( "qrelation",
        [
          Alcotest.test_case "basics" `Quick test_qrelation_basics;
          Alcotest.test_case "join and semijoin" `Quick
            test_qrelation_join_semijoin;
          Alcotest.test_case "project and select" `Quick
            test_qrelation_project_select;
        ] );
      ( "db",
        [
          Alcotest.test_case "load csv/tsv" `Quick test_db_load;
          Alcotest.test_case "errors" `Quick test_db_load_errors;
          Alcotest.test_case "atom-relation cache" `Quick test_atom_cache;
        ] );
      ( "colexec",
        [
          Alcotest.test_case "selection-vector semijoin" `Quick
            test_colexec_semijoin;
          Alcotest.test_case "radix edge cases" `Quick test_colexec_edge_cases;
          Alcotest.test_case "join-project materialisation" `Quick
            test_colexec_join_project;
          Alcotest.test_case "index and keysum" `Quick
            test_colexec_index_keysum;
          Alcotest.test_case "parallel passes byte-identical" `Quick
            test_colexec_parallel_identical;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_colexec_matches_nested_loop; prop_columnar_matches_brute_force ]
      );
      ( "yannakakis",
        [
          Alcotest.test_case "triangle (cyclic), all modes" `Quick
            test_triangle_all_modes;
          Alcotest.test_case "4-cycle, all modes" `Quick
            test_four_cycle_all_modes;
          Alcotest.test_case "acyclic two-hop" `Quick test_acyclic_query;
          Alcotest.test_case "projections and constants" `Quick
            test_projection_and_constants;
          Alcotest.test_case "empty results" `Quick test_empty_results;
          Alcotest.test_case "counts fail closed on overflow" `Quick
            test_count_overflow;
          Alcotest.test_case "two relations" `Quick test_two_relations;
          Alcotest.test_case "connected bag plans" `Quick test_bag_products;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_matches_brute_force ] );
      ( "observability",
        [
          Alcotest.test_case "backtrack-free enumeration" `Quick
            test_enumeration_no_dead_work;
        ] );
    ]
