module Bitset = Hd_graph.Bitset
module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Set_cover = Hd_setcover.Set_cover
module Obs = Hd_obs.Obs

(* Same counter names as Set_cover's own memo (Obs counters are shared
   by name), so every set-cover memo in the system reports into one
   pair of counters. *)
let c_memo_hits = Obs.Counter.make "setcover.memo_hits"
let c_memo_misses = Obs.Counter.make "setcover.memo_misses"

(* The fractional (LP) memo reports separately: its entries are exact
   rationals, not integral cover sizes, and live in their own table. *)
let c_lp_memo_hits = Obs.Counter.make "lp.memo_hits"
let c_lp_memo_misses = Obs.Counter.make "lp.memo_misses"

(* Bags keyed by content: canonical FNV over the sorted vertices, full
   equality on collision.  One table per workspace — workspaces are
   never shared across domains (see hd_parallel), so the memo needs no
   locking. *)
module Bag_tbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.fnv_hash
end)

type t = {
  n : int;
  base : int array array; (* original adjacency lists *)
  hypergraph : Hypergraph.t option;
  (* reusable buffers *)
  adj : int array array ref; (* growable working adjacency *)
  len : int array; (* live prefix length of each working list *)
  pos : int array; (* vertex -> position in current sigma *)
  stamp : int array; (* dedup marks, versioned by clock *)
  mutable clock : int;
  bag : Bitset.t; (* scratch bag for set covering *)
  greedy_memo : int Bag_tbl.t; (* bag -> greedy cover size *)
  exact_memo : int Bag_tbl.t; (* bag -> optimal cover size *)
  (* bag -> exact rho*.  A separate, Rat-valued table: integral and
     fractional cover costs must never share memo entries — the same
     bag legitimately has rho* < exact cover size (triangle: 3/2 vs
     2), so a shared int table would corrupt one mode or the other. *)
  frac_memo : Hd_lp.Rat.t Bag_tbl.t;
}

let make n base hypergraph =
  {
    n;
    base;
    hypergraph;
    adj = ref (Array.map Array.copy base);
    len = Array.make n 0;
    pos = Array.make n 0;
    stamp = Array.make n (-1);
    clock = 0;
    bag = Bitset.create (max n 1);
    greedy_memo = Bag_tbl.create 512;
    exact_memo = Bag_tbl.create 512;
    frac_memo = Bag_tbl.create 512;
  }

let reset_memo t =
  Bag_tbl.reset t.greedy_memo;
  Bag_tbl.reset t.exact_memo;
  Bag_tbl.reset t.frac_memo

(* memoise [cover] on bag contents: the same bag recurs massively both
   within one ordering's evaluation (bags of near-identical suffixes)
   and across the orderings of a GA population or best_of sweep *)
let memoized table cover universe =
  match Bag_tbl.find_opt table universe with
  | Some w ->
      Obs.Counter.incr c_memo_hits;
      w
  | None ->
      Obs.Counter.incr c_memo_misses;
      let w = cover universe in
      Bag_tbl.add table (Bitset.copy universe) w;
      w

let of_graph g =
  let n = Graph.n g in
  make n (Array.init n (fun v -> Array.of_list (Graph.neighbors g v))) None

let of_hypergraph h =
  let g = Hypergraph.primal h in
  let n = Graph.n g in
  make n
    (Array.init n (fun v -> Array.of_list (Graph.neighbors g v)))
    (Some h)

let reset t sigma =
  if Array.length sigma <> t.n then invalid_arg "Eval: ordering length mismatch";
  let adj = !(t.adj) in
  for v = 0 to t.n - 1 do
    let b = t.base.(v) in
    let k = Array.length b in
    if Array.length adj.(v) < k then adj.(v) <- Array.copy b
    else Array.blit b 0 adj.(v) 0 k;
    t.len.(v) <- k
  done;
  Array.iteri (fun i v -> t.pos.(v) <- i) sigma

let append t u x =
  let adj = !(t.adj) in
  let row = adj.(u) in
  let k = t.len.(u) in
  if k >= Array.length row then begin
    let bigger = Array.make (max 8 (2 * Array.length row)) 0 in
    Array.blit row 0 bigger 0 k;
    adj.(u) <- bigger
  end;
  adj.(u).(k) <- x;
  t.len.(u) <- k + 1

(* Compute the elimination neighbourhood X of sigma.(i): the distinct
   not-yet-eliminated entries of the working adjacency list.  Returns
   |X| and leaves X's members stamped with the current clock; [collect]
   receives each member once. *)
let scan t i v ~collect =
  t.clock <- t.clock + 1;
  let adj = !(t.adj) in
  let row = adj.(v) in
  let size = ref 0 in
  for j = 0 to t.len.(v) - 1 do
    let x = row.(j) in
    if t.pos.(x) < i && t.stamp.(x) <> t.clock then begin
      t.stamp.(x) <- t.clock;
      incr size;
      collect x
    end
  done;
  !size

(* Propagate X (stamped, gathered in [members]) to the bucket of the
   member eliminated next, i.e. with the largest position. *)
let propagate t members =
  match members with
  | [] -> ()
  | first :: _ ->
      let u =
        List.fold_left
          (fun acc x -> if t.pos.(x) > t.pos.(acc) then x else acc)
          first members
      in
      List.iter (fun x -> if x <> u then append t u x) members

let tw_width t sigma =
  reset t sigma;
  let width = ref 0 in
  let i = ref (t.n - 1) in
  (* once width >= i, no later bag (of at most i vertices besides the
     eliminated one... in fact at most i members) can increase it *)
  while !width < !i do
    let v = sigma.(!i) in
    let members = ref [] in
    let size = scan t !i v ~collect:(fun x -> members := x :: !members) in
    if size > !width then width := size;
    propagate t !members;
    decr i
  done;
  !width

let cover_width t cover v members =
  Bitset.clear t.bag;
  Bitset.add t.bag v;
  List.iter (Bitset.add t.bag) members;
  cover t.bag

let ghw_of_sigma t sigma ~cover =
  (match t.hypergraph with
  | None -> invalid_arg "Eval.ghw_width: workspace lacks a hypergraph"
  | Some _ -> ());
  reset t sigma;
  let width = ref 0 in
  let i = ref (t.n - 1) in
  (* a bag at step i has at most i + 1 vertices, hence cover size at
     most i + 1 *)
  while !i >= 0 && !width < !i + 1 do
    let v = sigma.(!i) in
    let members = ref [] in
    let _size = scan t !i v ~collect:(fun x -> members := x :: !members) in
    let w = cover_width t cover v !members in
    if w > !width then width := w;
    propagate t !members;
    decr i
  done;
  !width

let hypergraph_exn t =
  match t.hypergraph with
  | Some h -> h
  | None -> invalid_arg "Eval: workspace lacks a hypergraph"

let ghw_width ?rng t sigma =
  let h = hypergraph_exn t in
  ghw_of_sigma t sigma
    ~cover:
      (memoized t.greedy_memo (fun universe ->
           Set_cover.greedy_size ?rng { universe; hypergraph = h }))

let ghw_width_exact t sigma =
  let h = hypergraph_exn t in
  ghw_of_sigma t sigma
    ~cover:
      (memoized t.exact_memo (fun universe ->
           Set_cover.exact_size { universe; hypergraph = h }))

(* as [memoized], but for the Rat-valued LP memo with its own counters *)
let rho_memoized table hypergraph universe =
  match Bag_tbl.find_opt table universe with
  | Some w ->
      Obs.Counter.incr c_lp_memo_hits;
      w
  | None ->
      Obs.Counter.incr c_lp_memo_misses;
      let w = Hd_setcover.Fractional.cover_value { Set_cover.universe; hypergraph } in
      Bag_tbl.add table (Bitset.copy universe) w;
      w

let fhw_width_q t sigma =
  let module Rat = Hd_lp.Rat in
  let h = hypergraph_exn t in
  reset t sigma;
  let width = ref Rat.zero in
  let i = ref (t.n - 1) in
  (* a bag at step i has at most i + 1 vertices, and rho* never exceeds
     the bag size, so once width >= i + 1 no later bag can raise it *)
  while !i >= 0 && Rat.compare_int !width (!i + 1) < 0 do
    let v = sigma.(!i) in
    let members = ref [] in
    let _size = scan t !i v ~collect:(fun x -> members := x :: !members) in
    Bitset.clear t.bag;
    Bitset.add t.bag v;
    List.iter (Bitset.add t.bag) !members;
    let rho = rho_memoized t.frac_memo h t.bag in
    if Rat.compare rho !width > 0 then width := rho;
    propagate t !members;
    decr i
  done;
  !width

let weighted_width t ~domain_sizes sigma =
  if Array.length domain_sizes <> t.n then
    invalid_arg "Eval.weighted_width: domain_sizes length mismatch";
  reset t sigma;
  let total = ref 0.0 in
  for i = t.n - 1 downto 0 do
    let v = sigma.(i) in
    let product = ref (float_of_int domain_sizes.(v)) in
    let members = ref [] in
    let _size =
      scan t i v ~collect:(fun x ->
          members := x :: !members;
          product := !product *. float_of_int domain_sizes.(x))
    in
    total := !total +. !product;
    propagate t !members
  done;
  log !total /. log 2.0
