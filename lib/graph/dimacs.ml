let parse_string text =
  let graph = ref None in
  let pending = ref [] in
  let fail lineno fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "Dimacs: line %d: %s" lineno msg))
      fmt
  in
  let int lineno what s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> fail lineno "%s %S is not an integer" what s
  in
  (* endpoints are 1-based; an edge read before the problem line is
     checked against it once it comes *)
  let add g (lineno, u, v) =
    let n = Graph.n g in
    List.iter
      (fun x ->
        if x < 1 || x > n then fail lineno "vertex %d is not in 1..%d" x n)
      [ u; v ];
    Graph.add_edge g (u - 1) (v - 1)
  in
  let handle_line i line =
    let lineno = i + 1 in
    let line = String.trim line in
    if line = "" then ()
    else
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "c" :: _ -> ()
      | [ "p"; ("edge" | "edges" | "col"); n; m ] -> (
          match !graph with
          | Some _ -> fail lineno "duplicate problem line"
          | None ->
              let n = int lineno "vertex count" n in
              if n < 0 then fail lineno "vertex count %d is negative" n;
              ignore (int lineno "edge count" m);
              let g = Graph.create n in
              List.iter (add g) (List.rev !pending);
              pending := [];
              graph := Some g)
      | [ "e"; u; v ] -> (
          let e = (lineno, int lineno "vertex" u, int lineno "vertex" v) in
          match !graph with
          | Some g -> add g e
          | None -> pending := e :: !pending)
      | _ -> fail lineno "bad line: %s" line
  in
  String.split_on_char '\n' text |> List.iteri handle_line;
  match !graph with
  | Some g -> g
  | None -> failwith "Dimacs: missing problem line"

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p edge %d %d\n" (Graph.n g) (Graph.m g));
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "e %d %d\n" (u + 1) (v + 1)))
    (Graph.edges g);
  Buffer.contents buf
