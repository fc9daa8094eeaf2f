module Bitset = Hd_graph.Bitset
module Graph = Hd_graph.Graph

type t = {
  size : int;
  hyperedges : int array array;
  edge_bits : Bitset.t array; (* hyperedge -> its vertex set *)
  incidence : int list array; (* vertex -> hyperedge indices, ascending *)
  vertex_names : string array option;
  edge_names : string array option;
}

let sort_uniq_edge ~n vs =
  let vs = List.sort_uniq compare vs in
  if vs = [] then invalid_arg "Hypergraph.create: empty hyperedge";
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Hypergraph.create: vertex %d out of range [0,%d)" v n))
    vs;
  Array.of_list vs

let create ?vertex_names ?edge_names ~n edges =
  (match vertex_names with
  | Some names when Array.length names <> n ->
      invalid_arg "Hypergraph.create: vertex_names length mismatch"
  | _ -> ());
  (match edge_names with
  | Some names when Array.length names <> List.length edges ->
      invalid_arg "Hypergraph.create: edge_names length mismatch"
  | _ -> ());
  let hyperedges = Array.of_list (List.map (sort_uniq_edge ~n) edges) in
  let incidence = Array.make n [] in
  for i = Array.length hyperedges - 1 downto 0 do
    Array.iter (fun v -> incidence.(v) <- i :: incidence.(v)) hyperedges.(i)
  done;
  let edge_bits =
    Array.map
      (fun e ->
        let s = Bitset.create n in
        Array.iter (Bitset.add s) e;
        s)
      hyperedges
  in
  { size = n; hyperedges; edge_bits; incidence; vertex_names; edge_names }

let n_vertices h = h.size
let n_edges h = Array.length h.hyperedges
let edge h i = h.hyperedges.(i)
let edge_list h i = Array.to_list h.hyperedges.(i)
let edges h = Array.to_list (Array.map Array.to_list h.hyperedges)

let edge_bits h i = h.edge_bits.(i)
let edge_set h i = Bitset.copy h.edge_bits.(i)

let incident h v = h.incidence.(v)

let vertex_name h v =
  match h.vertex_names with
  | Some names -> names.(v)
  | None -> "v" ^ string_of_int v

let edge_name h i =
  match h.edge_names with
  | Some names -> names.(i)
  | None -> "h" ^ string_of_int i

let max_edge_size h =
  Array.fold_left (fun acc e -> max acc (Array.length e)) 0 h.hyperedges

let primal h =
  let g = Graph.create h.size in
  Array.iter
    (fun e ->
      let k = Array.length e in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          Graph.add_edge g e.(i) e.(j)
        done
      done)
    h.hyperedges;
  g

let dual h =
  let m = n_edges h in
  let g = Graph.create m in
  for v = 0 to h.size - 1 do
    let rec pairs = function
      | [] -> ()
      | i :: rest ->
          List.iter (fun j -> Graph.add_edge g i j) rest;
          pairs rest
    in
    pairs h.incidence.(v)
  done;
  g

let of_graph g =
  create ~n:(Graph.n g) (List.map (fun (u, v) -> [ u; v ]) (Graph.edges g))

let remove_subsumed h =
  let m = n_edges h in
  let subset a b =
    Array.for_all (fun v -> Array.exists (( = ) v) b) a
  in
  let keep = Array.make m true in
  for i = 0 to m - 1 do
    if keep.(i) then
      for j = 0 to m - 1 do
        if
          keep.(i) && i <> j
          && Array.length h.hyperedges.(i) <= Array.length h.hyperedges.(j)
          && subset h.hyperedges.(i) h.hyperedges.(j)
          (* among duplicates keep the smaller index *)
          && (Array.length h.hyperedges.(i) < Array.length h.hyperedges.(j)
             || (keep.(j) && j < i))
        then keep.(i) <- false
      done
  done;
  let surviving = List.filter (fun i -> keep.(i)) (List.init m Fun.id) in
  let edge_names =
    match h.edge_names with
    | None -> None
    | Some names -> Some (Array.of_list (List.map (fun i -> names.(i)) surviving))
  in
  create ?vertex_names:h.vertex_names ?edge_names ~n:h.size
    (List.map (fun i -> Array.to_list h.hyperedges.(i)) surviving)

let covers_vertex h v = h.incidence.(v) <> []

let all_vertices_covered h =
  let rec go v = v >= h.size || (covers_vertex h v && go (v + 1)) in
  go 0

let pp ppf h =
  Format.fprintf ppf "@[<v>hypergraph %d vertices %d edges" h.size (n_edges h);
  Array.iteri
    (fun i e ->
      Format.fprintf ppf "@,%s(%s)" (edge_name h i)
        (String.concat "," (List.map (vertex_name h) (Array.to_list e))))
    h.hyperedges;
  Format.fprintf ppf "@]"
