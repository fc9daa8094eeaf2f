type t = {
  size : int;
  adj : Bitset.t array;
  deg : int array;  (* deg.(v) = cardinal adj.(v), kept by every update *)
  live : Bitset.t;
  mutable live_count : int;
  keys : int array;  (* gamma_R's random sort keys, by vertex *)
  pending : Bitset.t;  (* gamma_R's vertices not yet taken in order *)
  preceding : Bitset.t;  (* gamma_R's scan prefix *)
}

let create size =
  {
    size;
    adj = Array.init size (fun _ -> Bitset.create size);
    deg = Array.make size 0;
    live = Bitset.create size;
    live_count = 0;
    keys = Array.make size 0;
    pending = Bitset.create size;
    preceding = Bitset.create size;
  }

(* [row v] is the adjacency row of [v] in the source graph; [live] its
   live vertex set *)
let load t ~row ~live ~live_count =
  for v = 0 to t.size - 1 do
    let r = row v in
    Bitset.blit ~src:r ~dst:t.adj.(v);
    t.deg.(v) <- Bitset.cardinal r
  done;
  Bitset.blit ~src:live ~dst:t.live;
  t.live_count <- live_count

let load_graph t g =
  if Graph.n g <> t.size then invalid_arg "Contract_graph.load_graph: size";
  load t ~row:(Graph.adjacency g) ~live:(Bitset.full t.size)
    ~live_count:t.size

let load_elim_graph t eg =
  if Elim_graph.capacity eg <> t.size then
    invalid_arg "Contract_graph.load_elim_graph: size";
  (* eliminated vertices have empty rows in [eg] *)
  load t ~row:(Elim_graph.adjacency eg) ~live:(Elim_graph.alive eg)
    ~live_count:(Elim_graph.n_alive eg)

let of_graph g =
  let t = create (Graph.n g) in
  load_graph t g;
  t

let n_alive t = t.live_count
let degree t v = t.deg.(v)
let mem_edge t u v = u <> v && Bitset.mem t.adj.(u) v

(* A live vertex of minimum degree in [set], walking it in ascending
   order; reservoir sampling gives a uniform choice among ties, drawing
   from [rng] only on a tie.  The walks here loop over [Bitset.next]:
   a closure per call was most of the kernel's allocation. *)
let min_degree_in t set ~rng =
  let best_key = ref max_int and count = ref 0 and pick = ref (-1) in
  let v = ref (Bitset.next set 0) in
  while !v >= 0 do
    let k = t.deg.(!v) in
    if k < !best_key then begin
      best_key := k;
      count := 1;
      pick := !v
    end
    else if k = !best_key then begin
      incr count;
      if Random.State.int rng !count = 0 then pick := !v
    end;
    v := Bitset.next set (!v + 1)
  done;
  if !pick < 0 then raise Not_found;
  !pick

let min_degree_vertex t ~rng = min_degree_in t t.live ~rng
let min_degree_neighbor t v ~rng = min_degree_in t t.adj.(v) ~rng

(* [u] comes before [v] in gamma_R's order: by degree, then sort key,
   then id *)
let precedes t u v =
  let du = t.deg.(u) and dv = t.deg.(v) in
  du < dv
  || du = dv
     && (t.keys.(u) < t.keys.(v) || (t.keys.(u) = t.keys.(v) && u < v))

let gamma_vertex t ~rng =
  (* one sort key per live vertex, drawn in ascending vertex order *)
  let pending = t.pending and preceding = t.preceding in
  Bitset.blit ~src:t.live ~dst:pending;
  let v = ref (Bitset.next pending 0) in
  while !v >= 0 do
    t.keys.(!v) <- Random.State.bits rng;
    v := Bitset.next pending (!v + 1)
  done;
  (* take the vertices in that order one minimum at a time, up to the
     first one not adjacent to all of its predecessors: the scan
     usually stops within a few vertices, so sorting them all is
     wasted *)
  Bitset.clear preceding;
  let found = ref (-1) and best = ref (Bitset.next pending 0) in
  while !found < 0 && !best >= 0 do
    let u = ref (Bitset.next pending (!best + 1)) in
    while !u >= 0 do
      if precedes t !u !best then best := !u;
      u := Bitset.next pending (!u + 1)
    done;
    let v = !best in
    Bitset.remove pending v;
    if Bitset.subset preceding t.adj.(v) then begin
      Bitset.add preceding v;
      best := Bitset.next pending 0
    end
    else found := v
  done;
  if !found < 0 then None else Some !found

let remove t v =
  assert (Bitset.mem t.live v);
  let row = t.adj.(v) in
  let u = ref (Bitset.next row 0) in
  while !u >= 0 do
    Bitset.remove t.adj.(!u) v;
    t.deg.(!u) <- t.deg.(!u) - 1;
    u := Bitset.next row (!u + 1)
  done;
  Bitset.clear row;
  t.deg.(v) <- 0;
  Bitset.remove t.live v;
  t.live_count <- t.live_count - 1

let clear t =
  let v = ref (Bitset.next t.live 0) in
  while !v >= 0 do
    Bitset.clear t.adj.(!v);
    t.deg.(!v) <- 0;
    v := Bitset.next t.live (!v + 1)
  done;
  Bitset.clear t.live;
  t.live_count <- 0

let contract t u v =
  assert (u <> v && Bitset.mem t.live u && Bitset.mem t.live v);
  let merged = t.adj.(v) and into = t.adj.(u) in
  let w = ref (Bitset.next merged 0) in
  while !w >= 0 do
    Bitset.remove t.adj.(!w) v;
    t.deg.(!w) <- t.deg.(!w) - 1;
    w := Bitset.next merged (!w + 1)
  done;
  Bitset.remove t.live v;
  t.live_count <- t.live_count - 1;
  Bitset.remove merged u;
  let w = ref (Bitset.next merged 0) in
  while !w >= 0 do
    if not (Bitset.mem into !w) then begin
      Bitset.add into !w;
      Bitset.add t.adj.(!w) u;
      t.deg.(u) <- t.deg.(u) + 1;
      t.deg.(!w) <- t.deg.(!w) + 1
    end;
    w := Bitset.next merged (!w + 1)
  done;
  Bitset.clear merged;
  t.deg.(v) <- 0
