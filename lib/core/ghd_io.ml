module Bitset = Hd_graph.Bitset

let to_string ~n_vertices ~n_edges ghd =
  let td = ghd.Ghd.td in
  let buf = Buffer.create 1024 in
  let k = Tree_decomposition.n_nodes td in
  Buffer.add_string buf
    (Printf.sprintf "s ghd %d %d %d %d\n" k (Ghd.width ghd) n_vertices n_edges);
  Array.iteri
    (fun i b ->
      Buffer.add_string buf (Printf.sprintf "b %d" (i + 1));
      Bitset.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" (v + 1))) b;
      Buffer.add_char buf '\n')
    td.Tree_decomposition.bags;
  Array.iteri
    (fun i edges ->
      Buffer.add_string buf (Printf.sprintf "l %d" (i + 1));
      Array.iter
        (fun e -> Buffer.add_string buf (Printf.sprintf " %d" (e + 1)))
        edges;
      Buffer.add_char buf '\n')
    ghd.Ghd.lambda;
  List.iter
    (fun (child, parent) ->
      Buffer.add_string buf (Printf.sprintf "%d %d\n" (child + 1) (parent + 1)))
    (Tree_decomposition.edges td);
  Buffer.contents buf

let parse_string text =
  let td, labels = Td_io.read ~ghd:true text in
  let lambda = Array.make (Tree_decomposition.n_nodes td) [||] in
  List.iter (fun (b, es) -> lambda.(b) <- Array.of_list es) labels;
  Ghd.make ~td ~lambda

let write_file path ~n_vertices ~n_edges ghd =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ~n_vertices ~n_edges ghd))

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_string (really_input_string ic (in_channel_length ic)))
