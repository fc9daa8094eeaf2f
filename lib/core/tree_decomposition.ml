module Bitset = Hd_graph.Bitset
module Graph = Hd_graph.Graph
module Elim_graph = Hd_graph.Elim_graph
module Hypergraph = Hd_hypergraph.Hypergraph

type t = { bags : Bitset.t array; parent : int array }

let make ~bags ~parent =
  let k = Array.length bags in
  if Array.length parent <> k then
    invalid_arg "Tree_decomposition.make: length mismatch";
  let roots = ref 0 in
  Array.iter
    (fun p ->
      if p = -1 then incr roots
      else if p < 0 || p >= k then
        invalid_arg "Tree_decomposition.make: parent out of range")
    parent;
  if k > 0 && !roots <> 1 then
    invalid_arg "Tree_decomposition.make: exactly one root required";
  (* acyclicity: walking parent pointers must terminate; since there is
     one -1 and k nodes, it suffices that each walk reaches the root *)
  Array.iteri
    (fun i _ ->
      let steps = ref 0 and cur = ref i in
      while !cur <> -1 do
        incr steps;
        if !steps > k then
          invalid_arg "Tree_decomposition.make: parent pointers contain a cycle";
        cur := parent.(!cur)
      done)
    parent;
  { bags; parent }

let n_nodes td = Array.length td.bags

let root td =
  let rec go i =
    if i >= Array.length td.parent then invalid_arg "Tree_decomposition.root"
    else if td.parent.(i) = -1 then i
    else go (i + 1)
  in
  go 0

let children td i =
  let acc = ref [] in
  for j = Array.length td.parent - 1 downto 0 do
    if td.parent.(j) = i then acc := j :: !acc
  done;
  !acc

let bag td i = td.bags.(i)

let width td =
  Array.fold_left (fun acc b -> max acc (Bitset.cardinal b)) 0 td.bags - 1

let edges td =
  let acc = ref [] in
  for i = Array.length td.parent - 1 downto 0 do
    if td.parent.(i) <> -1 then acc := (i, td.parent.(i)) :: !acc
  done;
  !acc

let connectedness_holds ~n td =
  let k = n_nodes td in
  if k = 0 then true
  else begin
    (* For each vertex v: the occurrence count must equal the size of
       one connected block.  Count occurrences and count tree edges both
       of whose endpoints contain v; connectedness of a forest slice
       holds iff edges = occurrences - 1 (when occurrences > 0). *)
    let occurrences = Array.make n 0 in
    let internal_edges = Array.make n 0 in
    Array.iter (fun b -> Bitset.iter (fun v -> occurrences.(v) <- occurrences.(v) + 1) b) td.bags;
    for i = 0 to k - 1 do
      let p = td.parent.(i) in
      if p <> -1 then
        Bitset.iter
          (fun v -> if Bitset.mem td.bags.(p) v then internal_edges.(v) <- internal_edges.(v) + 1)
          td.bags.(i)
    done;
    let rec go v =
      v >= n
      || (occurrences.(v) = 0 || internal_edges.(v) = occurrences.(v) - 1)
         && go (v + 1)
    in
    go 0
  end

let covers_all_sets td sets =
  List.for_all
    (fun set ->
      Array.exists
        (fun b -> List.for_all (fun v -> Bitset.mem b v) set)
        td.bags)
    sets

let valid_for_graph g td =
  covers_all_sets td (List.map (fun (u, v) -> [ u; v ]) (Graph.edges g))
  && connectedness_holds ~n:(Graph.n g) td

let valid_for_hypergraph h td =
  covers_all_sets td (Hypergraph.edges h)
  && connectedness_holds ~n:(Hypergraph.n_vertices h) td

let of_ordering g sigma =
  let n = Graph.n g in
  if Array.length sigma <> n then
    invalid_arg "Tree_decomposition.of_ordering: ordering length mismatch";
  if n = 0 then make ~bags:[||] ~parent:[||]
  else begin
    let pos = Ordering.positions sigma in
    let eg = Elim_graph.of_graph g in
    let bags = Array.init n (fun _ -> Bitset.create n) in
    let parent = Array.make n (-1) in
    (* eliminate from the back of sigma; node i is sigma.(i)'s bucket *)
    for i = n - 1 downto 0 do
      let v = sigma.(i) in
      let nbrs = Elim_graph.neighbors eg v in
      Bitset.add bags.(i) v;
      List.iter (Bitset.add bags.(i)) nbrs;
      (* connect to the bucket of the neighbour eliminated next, i.e.
         the neighbour with the largest position; with no neighbour the
         bucket hangs off the next bucket in the ordering so the result
         stays a tree *)
      let link =
        List.fold_left (fun acc u -> max acc pos.(u)) (-1) nbrs
      in
      if i > 0 then parent.(i) <- (if link >= 0 then link else i - 1);
      Elim_graph.eliminate eg v
    done;
    make ~bags ~parent
  end

let of_ordering_hypergraph h sigma = of_ordering (Hypergraph.primal h) sigma

(* contract child-into-parent (or parent-into-child) when one bag
   contains the other; repeat to fixpoint *)
let simplify td =
  let k = n_nodes td in
  if k <= 1 then td
  else begin
    (* union-find over nodes; merging keeps the larger bag *)
    let target = Array.init k (fun i -> i) in
    let rec find i = if target.(i) = i then i else find target.(i) in
    let bags = Array.map Bitset.copy td.bags in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to k - 1 do
        let p = td.parent.(i) in
        if p >= 0 then begin
          let ri = find i and rp = find p in
          if ri <> rp then begin
            if Bitset.subset bags.(ri) bags.(rp) then begin
              target.(ri) <- rp;
              changed := true
            end
            else if Bitset.subset bags.(rp) bags.(ri) then begin
              target.(rp) <- ri;
              changed := true
            end
          end
        end
      done
    done;
    (* compact representatives *)
    let fresh = Array.make k (-1) in
    let count = ref 0 in
    for i = 0 to k - 1 do
      if find i = i then begin
        fresh.(i) <- !count;
        incr count
      end
    done;
    let new_bags = Array.make !count (Bitset.create 0) in
    for i = 0 to k - 1 do
      if fresh.(i) >= 0 then new_bags.(fresh.(i)) <- bags.(i)
    done;
    (* parent of a representative: walk the original parent chain until
       leaving the merged class *)
    let new_parent = Array.make !count (-1) in
    for i = 0 to k - 1 do
      if fresh.(i) >= 0 then begin
        let rec up j =
          if j = -1 then -1
          else
            let r = find j in
            if r = i then up td.parent.(j) else fresh.(r)
        in
        new_parent.(fresh.(i)) <- up td.parent.(i)
      end
    done;
    make ~bags:new_bags ~parent:new_parent
  end

let pp ppf td =
  Format.fprintf ppf "@[<v>tree decomposition: %d nodes, width %d" (n_nodes td)
    (width td);
  Array.iteri
    (fun i b ->
      Format.fprintf ppf "@,node %d (parent %d): %a" i td.parent.(i) Bitset.pp b)
    td.bags;
  Format.fprintf ppf "@]"
