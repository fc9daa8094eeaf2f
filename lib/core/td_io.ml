module Bitset = Hd_graph.Bitset

let to_string ~n_vertices td =
  let buf = Buffer.create 1024 in
  let k = Tree_decomposition.n_nodes td in
  let width_plus_one =
    Array.fold_left
      (fun acc b -> max acc (Bitset.cardinal b))
      0 td.Tree_decomposition.bags
  in
  Buffer.add_string buf
    (Printf.sprintf "s td %d %d %d\n" k width_plus_one n_vertices);
  Array.iteri
    (fun i b ->
      Buffer.add_string buf (Printf.sprintf "b %d" (i + 1));
      Bitset.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" (v + 1))) b;
      Buffer.add_char buf '\n')
    td.Tree_decomposition.bags;
  List.iter
    (fun (child, parent) ->
      Buffer.add_string buf (Printf.sprintf "%d %d\n" (child + 1) (parent + 1)))
    (Tree_decomposition.edges td);
  Buffer.contents buf

let read ~ghd text =
  let fmt = if ghd then "Ghd_io" else "Td_io" in
  let fail lineno fmt' =
    Printf.ksprintf
      (fun m -> failwith (Printf.sprintf "%s: line %d: %s" fmt lineno m))
      fmt'
  in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let tokens i =
    String.split_on_char ' ' (String.trim lines.(i)) |> List.filter (( <> ) "")
  in
  let int_at lineno tok =
    match int_of_string_opt tok with
    | Some v -> v
    | None -> fail lineno "not an integer: %S" tok
  in
  (* a count from the solution line; a tree with k bags has k - 1 edge
     lines, so k cannot exceed the file's length *)
  let count lineno what tok =
    let v = int_at lineno tok in
    if v < 0 || (what = "bag" && v > Array.length lines + 1) then
      fail lineno "bad %s count %d" what v;
    v
  in
  (* 1-based id in the file -> 0-based, checked against [bound] *)
  let id lineno what bound tok =
    let v = int_at lineno tok in
    if v < 1 || v > bound then
      fail lineno "%s %d out of range 1..%d" what v bound;
    v - 1
  in
  (* the solution line is the first that is neither blank nor a comment *)
  let rec solution i =
    if i >= Array.length lines then
      fail i "end of input before the solution line"
    else match tokens i with [] | "c" :: _ -> solution (i + 1) | t -> (i, t)
  in
  let s, header = solution 0 in
  let k, n, m =
    match (ghd, header) with
    | false, [ "s"; "td"; k; _; n ] ->
        (count (s + 1) "bag" k, count (s + 1) "vertex" n, 0)
    | true, [ "s"; "ghd"; k; _; n; m ] ->
        ( count (s + 1) "bag" k,
          count (s + 1) "vertex" n,
          count (s + 1) "hyperedge" m )
    | _ ->
        fail (s + 1) "expected s %s <bags> <width> <vertices>%s"
          (if ghd then "ghd" else "td")
          (if ghd then " <hyperedges>" else "")
  in
  let bags = Array.init k (fun _ -> Bitset.create (max n 1)) in
  let adjacency = Array.make k [] and labels = ref [] in
  (* union-find over bags: an edge inside one component closes a cycle *)
  let comp = Array.init k Fun.id in
  let rec find i =
    if comp.(i) = i then i
    else begin
      comp.(i) <- comp.(comp.(i));
      find comp.(i)
    end
  in
  for i = s + 1 to Array.length lines - 1 do
    let lineno = i + 1 in
    match tokens i with
    | [] | "c" :: _ -> ()
    | "s" :: _ -> fail lineno "duplicate solution line"
    | "b" :: b :: vs ->
        let b = id lineno "bag" k b in
        List.iter (fun v -> Bitset.add bags.(b) (id lineno "vertex" n v)) vs
    | "l" :: b :: es when ghd ->
        let b = id lineno "bag" k b in
        labels := (b, List.map (id lineno "hyperedge" m) es) :: !labels
    | [ a; b ] ->
        let a = id lineno "bag" k a and b = id lineno "bag" k b in
        let ra = find a and rb = find b in
        if ra = rb then
          fail lineno "tree edge %d %d closes a cycle" (a + 1) (b + 1);
        comp.(ra) <- rb;
        adjacency.(a) <- b :: adjacency.(a);
        adjacency.(b) <- a :: adjacency.(b)
    | _ -> fail lineno "bad line: %s" (String.trim lines.(i))
  done;
  (* root at bag 0 and orient the tree edges by BFS *)
  let parent = Array.make k (-2) in
  if k > 0 then begin
    let queue = Queue.create () in
    Queue.push 0 queue;
    parent.(0) <- -1;
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      List.iter
        (fun j ->
          if parent.(j) = -2 then begin
            parent.(j) <- i;
            Queue.push j queue
          end)
        adjacency.(i)
    done;
    Array.iteri
      (fun i p ->
        if p = -2 then
          failwith
            (Printf.sprintf "%s: bag %d is not connected to bag 1" fmt (i + 1)))
      parent
  end;
  (Tree_decomposition.make ~bags ~parent, List.rev !labels)

let parse_string text = fst (read ~ghd:false text)

let write_file path ~n_vertices td =
  let oc = open_out path in
  output_string oc (to_string ~n_vertices td);
  close_out oc

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

let mismatch h (td : Tree_decomposition.t) ~lambda =
  let n = Hd_hypergraph.Hypergraph.n_vertices h
  and m = Hd_hypergraph.Hypergraph.n_edges h in
  (* [read] sizes every bag by the header's vertex count *)
  match Array.find_opt (fun b -> Bitset.capacity b <> max n 1) td.bags with
  | Some b ->
      Some
        (Printf.sprintf "its bags range over %d vertices, the instance has %d"
           (Bitset.capacity b) n)
  | None ->
      if Array.exists (Array.exists (fun e -> e >= m)) lambda then
        Some (Printf.sprintf "it names a hyperedge past the instance's %d" m)
      else None
