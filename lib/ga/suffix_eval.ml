module Graph = Hd_graph.Graph
module Bitset = Hd_graph.Bitset
module Hypergraph = Hd_hypergraph.Hypergraph
module Set_cover = Hd_setcover.Set_cover
module Obs = Hd_obs.Obs

let c_suffix_reevals = Obs.Counter.make "ga.suffix_reevals"
let c_full_reevals = Obs.Counter.make "ga.full_reevals"

(* shared by name with Set_cover's and Eval's memo counters *)
let c_memo_hits = Obs.Counter.make "setcover.memo_hits"
let c_memo_misses = Obs.Counter.make "setcover.memo_misses"

module Bag_tbl = Hd_core.Eval.Bag_tbl

type objective =
  | Tw
  | Ghw of { hypergraph : Hypergraph.t; seed : int; memo : int Bag_tbl.t }

type checkpoint = {
  steps_done : int; (* eliminations performed: positions n-1 .. n-steps *)
  width_so_far : int;
  snap : Bitset.t array; (* adjacency rows at that point *)
}

type t = {
  n : int;
  base : Bitset.t array; (* original adjacency *)
  objective : objective;
  adj : Bitset.t array; (* working elimination-graph rows *)
  bag : Bitset.t; (* scratch: {v} u N(v) of the current step *)
  last : int array; (* previously evaluated ordering *)
  mutable have_last : bool;
  mutable cps : checkpoint list; (* ascending steps_done *)
}

let make n base objective =
  {
    n;
    base;
    objective;
    adj = Array.map Bitset.copy base;
    bag = Bitset.create (max 1 n);
    last = Array.make (max 1 n) (-1);
    have_last = false;
    cps = [];
  }

let of_graph g =
  let n = Graph.n g in
  make n (Array.init n (fun v -> Bitset.copy (Graph.adjacency g v))) Tw

let of_hypergraph ?(seed = 0) h =
  let g = Hypergraph.primal h in
  let n = Graph.n g in
  make n
    (Array.init n (fun v -> Bitset.copy (Graph.adjacency g v)))
    (Ghw { hypergraph = h; seed; memo = Bag_tbl.create 512 })

(* Width contribution of the bag {v} u N(v).  For tw this is |N(v)|.
   For ghw it is the greedy cover size, memoised on bag contents; on a
   miss the tie rng is seeded from the bag's canonical hash so the
   result is a pure function of the bag — evaluation order (and hence
   suffix reuse) cannot change it. *)
let bag_width t =
  match t.objective with
  | Tw -> Bitset.cardinal t.bag - 1
  | Ghw { hypergraph; seed; memo } -> (
      match Bag_tbl.find_opt memo t.bag with
      | Some w ->
          Obs.Counter.incr c_memo_hits;
          w
      | None ->
          Obs.Counter.incr c_memo_misses;
          let rng = Random.State.make [| seed; Bitset.fnv_hash t.bag |] in
          let w =
            Set_cover.greedy_size ~rng
              { Set_cover.universe = t.bag; hypergraph }
          in
          Bag_tbl.add memo (Bitset.copy t.bag) w;
          w)

(* the largest width a bag at position [i] can still contribute: i
   members besides the eliminated vertex for tw, a cover of at most
   the i+1 bag vertices for ghw — the same early exits as Eval *)
let cap t i = match t.objective with Tw -> i | Ghw _ -> i + 1

let snapshot t ~steps_done ~width_so_far =
  { steps_done; width_so_far; snap = Array.map Bitset.copy t.adj }

let restore t cp =
  Array.iteri (fun v row -> Bitset.blit ~src:row ~dst:t.adj.(v)) cp.snap

let reset_from_base t =
  Array.iteri (fun v row -> Bitset.blit ~src:row ~dst:t.adj.(v)) t.base

(* run eliminations for positions [n-1-start_k] down, accumulating
   [width], recording checkpoints at power-of-two elimination counts
   beyond the ones already kept *)
let run t sigma ~start_k ~start_width =
  let n = t.n in
  let width = ref start_width in
  let next_cp =
    let rec above p k = if p > k then p else above (2 * p) k in
    above 1 (match t.cps with [] -> 0 | cps -> (List.hd (List.rev cps)).steps_done)
  in
  let next_cp = ref next_cp in
  let i = ref (n - 1 - start_k) in
  while !i >= 0 && !width < cap t !i do
    let v = sigma.(!i) in
    Bitset.blit ~src:t.adj.(v) ~dst:t.bag;
    Bitset.add t.bag v;
    let w = bag_width t in
    if w > !width then width := w;
    (* eliminate v: its neighbours become a clique, v disappears *)
    Bitset.iter
      (fun u ->
        if u <> v then begin
          Bitset.union_into ~src:t.bag ~dst:t.adj.(u);
          Bitset.remove t.adj.(u) u;
          Bitset.remove t.adj.(u) v
        end)
      t.bag;
    Bitset.clear t.adj.(v);
    let k = n - !i in
    if k = !next_cp && !i > 0 then begin
      t.cps <- t.cps @ [ snapshot t ~steps_done:k ~width_so_far:!width ];
      next_cp := 2 * k
    end;
    decr i
  done;
  Array.blit sigma 0 t.last 0 n;
  t.have_last <- true;
  !width

let common_suffix t sigma =
  let n = t.n in
  let j = ref 0 in
  while !j < n && sigma.(n - 1 - !j) = t.last.(n - 1 - !j) do
    incr j
  done;
  !j

let width t sigma =
  if Array.length sigma <> t.n then
    invalid_arg "Suffix_eval.width: ordering length mismatch";
  if t.n = 0 then 0
  else begin
    let l = if t.have_last then common_suffix t sigma else 0 in
    t.cps <- List.filter (fun cp -> cp.steps_done <= l) t.cps;
    match List.rev t.cps with
    | cp :: _ ->
        Obs.Counter.incr c_suffix_reevals;
        restore t cp;
        run t sigma ~start_k:cp.steps_done ~start_width:cp.width_so_far
    | [] ->
        Obs.Counter.incr c_full_reevals;
        reset_from_base t;
        run t sigma ~start_k:0 ~start_width:0
  end

let width_full t sigma =
  if Array.length sigma <> t.n then
    invalid_arg "Suffix_eval.width_full: ordering length mismatch";
  if t.n = 0 then 0
  else begin
    Obs.Counter.incr c_full_reevals;
    t.cps <- [];
    t.have_last <- false;
    reset_from_base t;
    run t sigma ~start_k:0 ~start_width:0
  end
