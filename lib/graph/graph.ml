type t = { size : int; adj : Bitset.t array; mutable edge_count : int }

let create size =
  assert (size >= 0);
  { size; adj = Array.init size (fun _ -> Bitset.create size); edge_count = 0 }

let n g = g.size
let m g = g.edge_count

let mem_edge g u v = u <> v && Bitset.mem g.adj.(u) v

let add_edge g u v =
  if u <> v && not (Bitset.mem g.adj.(u) v) then begin
    Bitset.add g.adj.(u) v;
    Bitset.add g.adj.(v) u;
    g.edge_count <- g.edge_count + 1
  end

let degree g v = Bitset.cardinal g.adj.(v)
let neighbors g v = Bitset.elements g.adj.(v)
let adjacency g v = g.adj.(v)

let edges g =
  let acc = ref [] in
  for u = g.size - 1 downto 0 do
    Bitset.iter (fun v -> if u < v then acc := (u, v) :: !acc) g.adj.(u)
  done;
  List.rev !acc

let of_edges size es =
  let g = create size in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let copy g =
  { size = g.size; adj = Array.map Bitset.copy g.adj; edge_count = g.edge_count }

let complete size =
  let g = create size in
  for u = 0 to size - 1 do
    for v = u + 1 to size - 1 do
      add_edge g u v
    done
  done;
  g

let cycle size =
  assert (size >= 3);
  let g = create size in
  for v = 0 to size - 1 do
    add_edge g v ((v + 1) mod size)
  done;
  g

let path size =
  let g = create size in
  for v = 0 to size - 2 do
    add_edge g v (v + 1)
  done;
  g

let grid w h =
  let g = create (w * h) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let v = (y * w) + x in
      if x < w - 1 then add_edge g v (v + 1);
      if y < h - 1 then add_edge g v (v + w)
    done
  done;
  g

let is_clique g vs =
  Bitset.for_all
    (fun u ->
      (* every other member of [vs] must be adjacent to [u] *)
      Bitset.for_all (fun v -> v = u || mem_edge g u v) vs)
    vs

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.size - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let min_degree g =
  if g.size = 0 then invalid_arg "Graph.min_degree: empty graph";
  let best = ref max_int in
  for v = 0 to g.size - 1 do
    if degree g v < !best then best := degree g v
  done;
  !best

let components ?within g =
  let seen =
    match within with
    | None -> Bitset.create g.size
    | Some vs ->
        let outside = Bitset.full g.size in
        Bitset.diff_into ~src:vs ~dst:outside;
        outside
  in
  let component root =
    let stack = ref [ root ] in
    let acc = ref [] in
    Bitset.add seen root;
    let rec go () =
      match !stack with
      | [] -> ()
      | v :: rest ->
          stack := rest;
          acc := v :: !acc;
          Bitset.iter
            (fun u ->
              if not (Bitset.mem seen u) then begin
                Bitset.add seen u;
                stack := u :: !stack
              end)
            g.adj.(v);
          go ()
    in
    go ();
    List.sort compare !acc
  in
  let comps = ref [] in
  for v = g.size - 1 downto 0 do
    if not (Bitset.mem seen v) then comps := component v :: !comps
  done;
  !comps

let is_connected g = List.length (components g) <= 1
