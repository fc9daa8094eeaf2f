(* Quickstart: build a hypergraph, compute decompositions with several
   methods, validate them, and inspect widths.

   Run with: dune exec examples/quickstart.exe *)

module Hypergraph = Hd_hypergraph.Hypergraph
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module Ordering = Hd_core.Ordering

let () =
  (* The paper's Example 5 hypergraph: three ternary constraints
     h1(x1,x2,x3), h2(x1,x5,x6), h3(x3,x4,x5).  Vertices are 0-based. *)
  let h =
    Hypergraph.create
      ~vertex_names:[| "x1"; "x2"; "x3"; "x4"; "x5"; "x6" |]
      ~edge_names:[| "h1"; "h2"; "h3" |]
      ~n:6
      [ [ 0; 1; 2 ]; [ 0; 4; 5 ]; [ 2; 3; 4 ] ]
  in
  Format.printf "%a@.@." Hypergraph.pp h;

  (* 1. A tree decomposition from an elimination ordering (bucket
     elimination, Figure 2.10). *)
  let sigma = [| 0; 2; 4; 1; 3; 5 |] in
  assert (Ordering.is_permutation sigma);
  let td = Td.of_ordering_hypergraph h sigma in
  Format.printf "tree decomposition from %a:@.%a@.@." Ordering.pp sigma Td.pp td;
  assert (Td.valid_for_hypergraph h td);

  (* 2. Upgrade it to a generalized hypertree decomposition by covering
     every bag with hyperedges (Section 2.5.2). *)
  let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
  Format.printf "generalized hypertree decomposition (exact covers):@.%a@.@."
    (Ghd.pp h) ghd;
  assert (Ghd.valid h ghd);

  (* 3. Exact widths via the search algorithms. *)
  let exact (r : int Hd_search.Ordering_search.result) =
    match r.outcome with Exact w -> w | Bounds _ -> assert false
  in
  let tw =
    exact (Hd_search.Ordering_search.Tw.astar ~seed:1 (Hypergraph.primal h))
  in
  let ghw = exact (Hd_search.Ordering_search.Ghw.bb ~seed:1 h) in
  Format.printf "treewidth(H) = %d, ghw(H) = %d (Figure 2.6/2.7 report 2/2)@.@."
    tw ghw;

  (* 4. The Chapter 3 pipeline: any GHD yields, via leaf normal form, an
     elimination ordering at least as good. *)
  let sigma' = Hd_core.Leaf_normal_form.ordering_for_ghd h ghd in
  let ws = Hd_core.Eval.of_hypergraph h in
  Format.printf
    "leaf-normal-form ordering %a has exact-cover width %d <= %d@." Ordering.pp
    sigma'
    (Hd_core.Eval.ghw_width_exact ws sigma')
    (Ghd.width ghd);

  print_endline "quickstart: all assertions passed"
