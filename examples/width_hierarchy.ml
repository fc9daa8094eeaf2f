(* The width hierarchy in one sweep: for each instance, every width
   notion the library computes — acyclicity, fractional hypertree
   width, generalized hypertree width, hypertree width, treewidth —
   with certainty markers.  The hierarchy

       fhw <= ghw <= hw <= tw + 1

   is the backbone of the "which CSP classes are tractable?" question
   the hypertree decomposition literature answers.

   Run with: dune exec examples/width_hierarchy.exe *)

module Widths = Hd_search.Widths
module Solver = Hd_engine.Solver

let outcome = function
  | Solver.Exact w -> Printf.sprintf "%d*" w
  | Solver.Bounds { lb; ub } -> Printf.sprintf "[%d,%d]" lb ub

let () =
  Printf.printf "%-12s %5s %5s | %7s %8s %8s %6s %8s\n" "instance" "V" "H"
    "acyclic" "fhw" "ghw" "hw" "tw";
  List.iter
    (fun name ->
      match Hd_instances.Hypergraphs.by_name name with
      | None -> failwith ("missing " ^ name)
      | Some h ->
          let r =
            Widths.analyze ~within:(Hd_engine.Budget.create ~time_limit:9.0 ()) h
          in
          Printf.printf "%-12s %5d %5d | %7b %8s %8s %6s %8s\n" name
            r.Widths.n_vertices r.Widths.n_hyperedges r.Widths.acyclic
            (Hd_lp.Rat.to_string r.Widths.fhw
            ^ if r.Widths.fhw_exact then "*" else "")
            (outcome r.Widths.ghw)
            (match r.Widths.hw with Some w -> string_of_int w ^ "*" | None -> "t/o")
            (outcome r.Widths.tw))
    [ "adder_15"; "adder_25"; "bridge_15"; "clique_10"; "grid2d_10"; "b06" ];
  print_endline "\n(* = proved exact; the hierarchy fhw <= ghw <= hw <= tw+1 holds row-wise)"
