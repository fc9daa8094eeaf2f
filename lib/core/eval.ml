module Bitset = Hd_graph.Bitset
module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Set_cover = Hd_setcover.Set_cover
module Rat = Hd_lp.Rat
module Obs = Hd_obs.Obs

let c_suffix_reevals = Obs.Counter.make "eval.suffix_reevals"
let c_full_reevals = Obs.Counter.make "eval.full_reevals"

(* Every integral cover memo in the system (greedy and exact, here and
   in the exact searches' bag oracles) reports into this one pair. *)
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

(* The objective whose run recorded the checkpoints.  Weighted widths
   depend on the domain sizes, so those are part of the owner. *)
type owner = Nobody | Tw | Greedy | Exact | Fhw | Weighted of int array

(* How the greedy cover of a memo miss breaks ties: with the caller's
   rng, or with an rng seeded from (seed, bag hash), which makes a
   bag's cover size a pure function of the bag. *)
type ties = Caller | Seeded of int

type t = {
  n : int;
  base : Bitset.t array; (* original adjacency rows *)
  hypergraph : Hypergraph.t option;
  ties : ties;
  adj : Bitset.t array; (* working elimination-graph rows *)
  bag : Bitset.t; (* {v} u N(v) of the current step *)
  (* checkpoint j holds the rows after 2^j eliminations of [last];
     [n_cps] of them are valid, all recorded by [owner] *)
  last : int array;
  mutable owner : owner;
  mutable n_cps : int;
  snaps : Bitset.t array array; (* allocated on first use *)
  saved_int : int array; (* the width so far at each checkpoint *)
  saved_q : Rat.t array;
  saved_sum : float array;
  greedy_memo : int Bag_tbl.t; (* bag -> greedy cover size *)
  exact_memo : int Bag_tbl.t; (* bag -> optimal cover size *)
  (* bag -> exact rho*.  A separate, Rat-valued table: integral and
     fractional cover costs must never share memo entries — the same
     bag legitimately has rho* < exact cover size (triangle: 3/2 vs
     2), so a shared int table would corrupt one mode or the other. *)
  frac_memo : Rat.t Bag_tbl.t;
}

let make g hypergraph ties =
  let n = Graph.n g in
  (* checkpoints sit at 2^j < n eliminations *)
  let levels =
    let rec count j = if 1 lsl j < n then count (j + 1) else j in
    count 0
  in
  {
    n;
    base = Array.init n (fun v -> Bitset.copy (Graph.adjacency g v));
    hypergraph;
    ties;
    adj = Array.init n (fun _ -> Bitset.create n);
    bag = Bitset.create (max n 1);
    last = Array.make n (-1);
    owner = Nobody;
    n_cps = 0;
    snaps = Array.make levels [||];
    saved_int = Array.make levels 0;
    saved_q = Array.make levels Rat.zero;
    saved_sum = Array.make levels 0.0;
    (* memo tables start small and grow on demand: a bucket array over
       256 words goes straight to the major heap, and most workspaces
       price few distinct bags (docs/PERFORMANCE.md, section 11) *)
    greedy_memo = Bag_tbl.create 64;
    exact_memo = Bag_tbl.create 64;
    frac_memo = Bag_tbl.create 64;
  }

let of_graph g = make g None Caller

let of_hypergraph ?seed h =
  make (Hypergraph.primal h) (Some h)
    (match seed with None -> Caller | Some s -> Seeded s)

let hypergraph_exn t =
  match t.hypergraph with
  | Some h -> h
  | None -> invalid_arg "Eval: workspace lacks a hypergraph"

(* One width objective: the price of a bag, how prices fold into the
   result, and when no bag at position [i] or below can change it. *)
type 'a objective = {
  owner : owner;
  price : Bitset.t -> 'a;
  fold : 'a -> 'a -> 'a;
  settled : 'a -> int -> bool;
  zero : 'a;
  saved : 'a array; (* the workspace's checkpoint accumulators *)
}

let save_rows t j =
  if Array.length t.snaps.(j) = 0 then
    t.snaps.(j) <- Array.init t.n (fun _ -> Bitset.create t.n);
  Array.iteri (fun v row -> Bitset.blit ~src:row ~dst:t.snaps.(j).(v)) t.adj

let load_rows t rows =
  Array.iteri (fun v row -> Bitset.blit ~src:row ~dst:t.adj.(v)) rows

let common_suffix t sigma =
  let n = t.n in
  let l = ref 0 in
  while !l < n && sigma.(n - 1 - !l) = t.last.(n - 1 - !l) do
    incr l
  done;
  !l

(* The one elimination loop.  Eliminating [sigma.(i)] from [n-1] down
   prices its bag {v} u N(v) and makes the bag a clique; the rows then
   depend only on which vertices are gone, so the run resumes from the
   deepest checkpoint of the same objective inside the suffix it shares
   with the previous ordering, and records checkpoints at 1, 2, 4, ...
   eliminations past it. *)
let run t obj sigma =
  let n = t.n in
  if Array.length sigma <> n then invalid_arg "Eval: ordering length mismatch";
  if t.owner <> obj.owner then begin
    t.owner <- obj.owner;
    t.n_cps <- 0
  end;
  let l = common_suffix t sigma in
  while t.n_cps > 0 && 1 lsl (t.n_cps - 1) > l do
    t.n_cps <- t.n_cps - 1
  done;
  let acc =
    if t.n_cps > 0 then begin
      Obs.Counter.incr c_suffix_reevals;
      load_rows t t.snaps.(t.n_cps - 1);
      ref obj.saved.(t.n_cps - 1)
    end
    else begin
      Obs.Counter.incr c_full_reevals;
      load_rows t t.base;
      ref obj.zero
    end
  in
  let i = ref (n - 1 - if t.n_cps > 0 then 1 lsl (t.n_cps - 1) else 0) in
  (* the checkpoints recorded below belong to [sigma], even if pricing
     a bag raises *)
  Array.blit sigma 0 t.last 0 n;
  while !i >= 0 && not (obj.settled !acc !i) do
    let v = sigma.(!i) in
    Bitset.blit ~src:t.adj.(v) ~dst:t.bag;
    Bitset.add t.bag v;
    acc := obj.fold !acc (obj.price t.bag);
    Bitset.iter
      (fun u ->
        if u <> v then begin
          Bitset.union_into ~src:t.bag ~dst:t.adj.(u);
          Bitset.remove t.adj.(u) u;
          Bitset.remove t.adj.(u) v
        end)
      t.bag;
    Bitset.clear t.adj.(v);
    if n - !i = 1 lsl t.n_cps && !i > 0 then begin
      save_rows t t.n_cps;
      obj.saved.(t.n_cps) <- !acc;
      t.n_cps <- t.n_cps + 1
    end;
    decr i
  done;
  !acc

(* memoise [cover] on bag contents: the same bag recurs massively both
   within one ordering's evaluation (bags of near-identical suffixes)
   and across the orderings of a GA population or best_of sweep *)
let memoized table cover ctx bag =
  match Bag_tbl.find_opt table bag with
  | Some w ->
      Obs.Counter.incr c_memo_hits;
      w
  | None ->
      Obs.Counter.incr c_memo_misses;
      let w = cover ctx bag in
      Bag_tbl.add table (Bitset.copy bag) w;
      w

let exact_size hypergraph universe =
  Set_cover.exact_size { universe; hypergraph }

(* [exact_size] is a constant closure: a search pricing every bag
   through here allocates nothing per lookup *)
let exact_memoized table hypergraph bag =
  memoized table exact_size hypergraph bag

(* a bag at position i has at most i + 1 vertices, hence cover size
   at most i + 1 *)
let cover_objective t owner price =
  {
    owner;
    price;
    fold = Int.max;
    settled = (fun w i -> w >= i + 1);
    zero = 0;
    saved = t.saved_int;
  }

let tw_width t sigma =
  run t
    {
      owner = Tw;
      price = (fun bag -> Bitset.cardinal bag - 1);
      fold = Int.max;
      (* a bag at position i has at most i members besides the
         eliminated vertex *)
      settled = (fun w i -> w >= i);
      zero = 0;
      saved = t.saved_int;
    }
    sigma

let greedy_size t hypergraph rng universe =
  let rng =
    match t.ties with
    | Caller -> rng
    | Seeded seed ->
        Some (Random.State.make [| seed; Bitset.fnv_hash universe |])
  in
  Set_cover.greedy_size ?rng { universe; hypergraph }

let ghw_width ?rng t sigma =
  let cover = greedy_size t (hypergraph_exn t) in
  run t (cover_objective t Greedy (memoized t.greedy_memo cover rng)) sigma

let ghw_width_exact t sigma =
  run t
    (cover_objective t Exact (exact_memoized t.exact_memo (hypergraph_exn t)))
    sigma

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
  let h = hypergraph_exn t in
  run t
    {
      owner = Fhw;
      price = rho_memoized t.frac_memo h;
      fold = (fun a b -> if Rat.compare b a > 0 then b else a);
      (* rho* never exceeds the bag size, at most i + 1 *)
      settled = (fun w i -> Rat.compare_int w (i + 1) >= 0);
      zero = Rat.zero;
      saved = t.saved_q;
    }
    sigma

let weighted_width t ~domain_sizes sigma =
  if Array.length domain_sizes <> t.n then
    invalid_arg "Eval.weighted_width: domain_sizes length mismatch";
  let owner =
    match t.owner with
    | Weighted d when d = domain_sizes -> t.owner
    | _ -> Weighted (Array.copy domain_sizes)
  in
  let total =
    run t
      {
        owner;
        price =
          (fun bag ->
            Bitset.fold (fun x p -> p *. float_of_int domain_sizes.(x)) bag 1.0);
        fold = ( +. );
        settled = (fun _ _ -> false);
        zero = 0.0;
        saved = t.saved_sum;
      }
      sigma
  in
  log total /. log 2.0
