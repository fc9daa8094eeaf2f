module Bitset = Hd_graph.Bitset
module Hypergraph = Hd_hypergraph.Hypergraph
module Set_cover = Hd_setcover.Set_cover

type t = { td : Tree_decomposition.t; lambda : int array array }

type cover_strategy = [ `Greedy of Random.State.t option | `Exact ]

let make ~td ~lambda =
  if Array.length lambda <> Tree_decomposition.n_nodes td then
    invalid_arg "Ghd.make: lambda length mismatch";
  { td; lambda }

let width ghd =
  Array.fold_left (fun acc l -> max acc (Array.length l)) 0 ghd.lambda

let lambda_vertices h lambda_p ~n =
  let vars = Bitset.create n in
  Array.iter
    (fun e -> Array.iter (Bitset.add vars) (Hypergraph.edge h e))
    lambda_p;
  vars

let valid h ghd =
  Tree_decomposition.valid_for_hypergraph h ghd.td
  && Array.for_all
       (fun i ->
         let vars =
           lambda_vertices h ghd.lambda.(i) ~n:(Hypergraph.n_vertices h)
         in
         Bitset.subset (Tree_decomposition.bag ghd.td i) vars)
       (Array.init (Tree_decomposition.n_nodes ghd.td) (fun i -> i))

let cover_bag h bag ~cover =
  let problem = { Set_cover.universe = bag; hypergraph = h } in
  match cover with
  | `Greedy rng -> Array.of_list (Set_cover.greedy ?rng problem)
  | `Exact -> Array.of_list (Set_cover.exact problem)

let of_tree_decomposition h td ~cover =
  let k = Tree_decomposition.n_nodes td in
  let lambda =
    Array.init k (fun i -> cover_bag h (Tree_decomposition.bag td i) ~cover)
  in
  { td; lambda }

let of_ordering h sigma ~cover =
  of_tree_decomposition h (Tree_decomposition.of_ordering_hypergraph h sigma) ~cover

let pp h ppf ghd =
  Format.fprintf ppf "@[<v>generalized hypertree decomposition: width %d"
    (width ghd);
  for i = 0 to Tree_decomposition.n_nodes ghd.td - 1 do
    Format.fprintf ppf "@,node %d: chi=%a lambda={%s}" i Bitset.pp
      (Tree_decomposition.bag ghd.td i)
      (String.concat ","
         (List.map (Hypergraph.edge_name h) (Array.to_list ghd.lambda.(i))))
  done;
  Format.fprintf ppf "@]"
