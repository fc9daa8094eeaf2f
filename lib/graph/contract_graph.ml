type t = {
  size : int;
  adj : Bitset.t array;
  deg : int array;  (* deg.(v) = cardinal adj.(v), kept by every update *)
  live : Bitset.t;
  mutable live_count : int;
  keys : int array;  (* gamma_R's random sort keys, by vertex *)
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
   from [rng] only on a tie. *)
let min_degree_in t set ~rng =
  let best_key = ref max_int and count = ref 0 and pick = ref (-1) in
  Bitset.iter
    (fun v ->
      let k = t.deg.(v) in
      if k < !best_key then begin
        best_key := k;
        count := 1;
        pick := v
      end
      else if k = !best_key then begin
        incr count;
        if Random.State.int rng !count = 0 then pick := v
      end)
    set;
  if !pick < 0 then raise Not_found;
  !pick

let min_degree_vertex t ~rng = min_degree_in t t.live ~rng
let min_degree_neighbor t v ~rng = min_degree_in t t.adj.(v) ~rng

let gamma_vertex t ~rng =
  (* one sort key per live vertex, drawn in ascending vertex order *)
  let order = Array.make t.live_count 0 and keys = t.keys in
  let i = ref 0 in
  Bitset.iter
    (fun v ->
      order.(!i) <- v;
      keys.(v) <- Random.State.bits rng;
      incr i)
    t.live;
  Array.sort
    (fun a b ->
      let c = Int.compare t.deg.(a) t.deg.(b) in
      if c <> 0 then c
      else
        let c = Int.compare keys.(a) keys.(b) in
        if c <> 0 then c else Int.compare a b)
    order;
  (* the first vertex, in that order, not adjacent to all of its
     predecessors *)
  let preceding = t.preceding in
  Bitset.clear preceding;
  let rec find i =
    if i >= Array.length order then None
    else
      let v = order.(i) in
      if Bitset.subset preceding t.adj.(v) then begin
        Bitset.add preceding v;
        find (i + 1)
      end
      else Some v
  in
  find 0

let remove t v =
  assert (Bitset.mem t.live v);
  Bitset.iter
    (fun u ->
      Bitset.remove t.adj.(u) v;
      t.deg.(u) <- t.deg.(u) - 1)
    t.adj.(v);
  Bitset.clear t.adj.(v);
  t.deg.(v) <- 0;
  Bitset.remove t.live v;
  t.live_count <- t.live_count - 1

let clear t =
  Bitset.iter
    (fun v ->
      Bitset.clear t.adj.(v);
      t.deg.(v) <- 0)
    t.live;
  Bitset.clear t.live;
  t.live_count <- 0

let contract t u v =
  assert (u <> v && Bitset.mem t.live u && Bitset.mem t.live v);
  let merged = t.adj.(v) and into = t.adj.(u) in
  Bitset.iter
    (fun w ->
      Bitset.remove t.adj.(w) v;
      t.deg.(w) <- t.deg.(w) - 1)
    merged;
  Bitset.remove t.live v;
  t.live_count <- t.live_count - 1;
  Bitset.remove merged u;
  Bitset.iter
    (fun w ->
      if not (Bitset.mem into w) then begin
        Bitset.add into w;
        Bitset.add t.adj.(w) u;
        t.deg.(u) <- t.deg.(u) + 1;
        t.deg.(w) <- t.deg.(w) + 1
      end)
    merged;
  Bitset.clear merged;
  t.deg.(v) <- 0
