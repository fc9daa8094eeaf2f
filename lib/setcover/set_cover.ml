module Bitset = Hd_graph.Bitset
module Hypergraph = Hd_hypergraph.Hypergraph
module Obs = Hd_obs.Obs

(* Observability: set-cover calls dominate the cost of the ghw
   searches.  Their memo lives in Hd_core.Eval, keyed by bag content. *)
let c_greedy_calls = Obs.Counter.make "setcover.greedy_calls"
let c_exact_calls = Obs.Counter.make "setcover.exact_calls"
let c_exact_nodes = Obs.Counter.make "setcover.exact_nodes"

type problem = { universe : Bitset.t; hypergraph : Hypergraph.t }

(* Hyperedges that can contribute to the cover: those meeting the
   universe.  Collected through the incidence lists so sparse bags stay
   cheap; the array runs from the last edge first met to the first. *)
let candidate_edges problem =
  let h = problem.hypergraph in
  let seen = Bitset.create (Hypergraph.n_edges h) in
  Bitset.fold
    (fun v acc ->
      List.fold_left
        (fun acc e ->
          if Bitset.mem seen e then acc
          else begin
            Bitset.add seen e;
            e :: acc
          end)
        acc (Hypergraph.incident h v))
    problem.universe []
  |> Array.of_list

let check_coverable problem =
  Bitset.iter
    (fun v ->
      if Hypergraph.incident problem.hypergraph v = [] then
        invalid_arg
          (Printf.sprintf "Set_cover: vertex %d lies in no hyperedge" v))
    problem.universe

(* the greedy cover over [candidate_edges problem], which [exact]
   computes once for its seed and its branch and bound *)
let greedy_over ?rng problem candidates =
  Obs.Counter.incr c_greedy_calls;
  let h = problem.hypergraph in
  let uncovered = Bitset.copy problem.universe in
  let chosen = ref [] in
  while not (Bitset.is_empty uncovered) do
    let best_gain = ref 0 and ties = ref 0 and pick = ref (-1) in
    for i = 0 to Array.length candidates - 1 do
      let e = candidates.(i) in
      let gain = Bitset.inter_cardinal (Hypergraph.edge_bits h e) uncovered in
      if gain > !best_gain then begin
        best_gain := gain;
        ties := 1;
        pick := e
      end
      else if gain = !best_gain && gain > 0 then begin
        incr ties;
        match rng with
        | Some rng -> if Random.State.int rng !ties = 0 then pick := e
        | None -> ()
      end
    done;
    assert (!pick >= 0);
    chosen := !pick :: !chosen;
    Bitset.diff_into ~src:(Hypergraph.edge_bits h !pick) ~dst:uncovered
  done;
  List.rev !chosen

let greedy ?rng problem =
  check_coverable problem;
  greedy_over ?rng problem (candidate_edges problem)

let greedy_size ?rng problem = List.length (greedy ?rng problem)

let cover_size_lower_bound ~universe_size ~max_set_size =
  if universe_size = 0 then 0
  else (universe_size + max_set_size - 1) / max_set_size

let is_cover problem chosen =
  let covered = Bitset.create (Bitset.capacity problem.universe) in
  List.iter
    (fun e ->
      Array.iter (Bitset.add covered) (Hypergraph.edge problem.hypergraph e))
    chosen;
  Bitset.subset problem.universe covered

(* Exact cover by depth-first branch and bound: branch on the uncovered
   vertex contained in the fewest hyperedges (fail-first, lowest id on
   ties), try each hyperedge containing it best gain first (lowest id
   on ties), and prune with the k-set-cover bound on the best gain any
   candidate still offers.  A node at depth d branches only while
   d + 1 < cutoff <= the greedy seed's size, so every buffer is sized
   once per call by that seed and the search allocates nothing per
   node: one uncovered set, one chosen edge and one ranked row per
   depth. *)
let exact problem =
  Obs.Counter.incr c_exact_calls;
  check_coverable problem;
  let h = problem.hypergraph in
  let candidates = candidate_edges problem in
  let seed = greedy_over problem candidates in
  let levels = max 1 (List.length seed) in
  let best = Array.of_list seed and best_size = ref (List.length seed) in
  (* the universe sorted by (degree, id), keyed degree * n + id: its
     first uncovered vertex is the pivot; [width] is the top degree *)
  let n = Bitset.capacity problem.universe in
  let order =
    Bitset.fold
      (fun v acc -> (List.length (Hypergraph.incident h v) * n) + v :: acc)
      problem.universe []
    |> Array.of_list
  in
  Array.sort Int.compare order;
  let width =
    if Array.length order = 0 then 0 else order.(Array.length order - 1) / n
  in
  Array.iteri (fun i key -> order.(i) <- key mod n) order;
  let uncovered = Array.init levels (fun _ -> Bitset.create n) in
  Bitset.blit ~src:problem.universe ~dst:uncovered.(0);
  let chosen = Array.make levels 0 in
  let ranked = Array.make (levels * width) 0 in
  let gains = Array.make (levels * width) 0 in
  (* inserts the listed edges into row [base] of [ranked] by (gain
     desc, id asc), after the [k] already there; returns the row's
     length *)
  let rec rank unc base k = function
    | [] -> k
    | e :: rest ->
        let gain = Bitset.inter_cardinal (Hypergraph.edge_bits h e) unc in
        let j = ref (base + k) in
        while
          !j > base
          && (gains.(!j - 1) < gain
             || (gains.(!j - 1) = gain && ranked.(!j - 1) > e))
        do
          gains.(!j) <- gains.(!j - 1);
          ranked.(!j) <- ranked.(!j - 1);
          decr j
        done;
        gains.(!j) <- gain;
        ranked.(!j) <- e;
        rank unc base (k + 1) rest
  in
  let nodes = ref 0 in
  let rec branch depth =
    incr nodes;
    let unc = uncovered.(depth) in
    if Bitset.is_empty unc then begin
      if depth < !best_size then begin
        for i = 0 to depth - 1 do
          best.(i) <- chosen.(depth - 1 - i)
        done;
        best_size := depth
      end
    end
    else begin
      let max_gain = ref 1 in
      for i = 0 to Array.length candidates - 1 do
        max_gain :=
          Int.max !max_gain
            (Bitset.inter_cardinal
               (Hypergraph.edge_bits h candidates.(i))
               unc)
      done;
      let lb =
        cover_size_lower_bound ~universe_size:(Bitset.cardinal unc)
          ~max_set_size:!max_gain
      in
      if depth + lb < !best_size then begin
        let p = ref 0 in
        while not (Bitset.mem unc order.(!p)) do
          incr p
        done;
        let base = depth * width in
        let k = rank unc base 0 (Hypergraph.incident h order.(!p)) in
        let child = uncovered.(depth + 1) in
        for i = base to base + k - 1 do
          Bitset.blit ~src:unc ~dst:child;
          Bitset.diff_into ~src:(Hypergraph.edge_bits h ranked.(i)) ~dst:child;
          chosen.(depth) <- ranked.(i);
          branch (depth + 1)
        done
      end
    end
  in
  branch 0;
  Obs.Counter.add c_exact_nodes !nodes;
  List.init !best_size (Array.get best)

let exact_size problem = List.length (exact problem)
