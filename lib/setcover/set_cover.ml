module Bitset = Hd_graph.Bitset
module Hypergraph = Hd_hypergraph.Hypergraph
module Obs = Hd_obs.Obs

(* Observability: set-cover calls dominate the cost of the ghw
   searches, and the memo table is their main accelerator. *)
let c_greedy_calls = Obs.Counter.make "setcover.greedy_calls"
let c_exact_calls = Obs.Counter.make "setcover.exact_calls"
let c_memo_hits = Obs.Counter.make "setcover.memo_hits"
let c_memo_misses = Obs.Counter.make "setcover.memo_misses"

type problem = { universe : Bitset.t; hypergraph : Hypergraph.t }

(* Hyperedges that can contribute to the cover: those meeting the
   universe.  Collected through the incidence lists so sparse bags stay
   cheap; the list runs from the last edge first met to the first. *)
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

let check_coverable problem =
  Bitset.iter
    (fun v ->
      if Hypergraph.incident problem.hypergraph v = [] then
        invalid_arg
          (Printf.sprintf "Set_cover: vertex %d lies in no hyperedge" v))
    problem.universe

let covered_count problem edge uncovered =
  let count = ref 0 in
  Array.iter
    (fun v -> if Bitset.mem uncovered v then incr count)
    (Hypergraph.edge problem.hypergraph edge);
  !count

let greedy ?rng problem =
  Obs.Counter.incr c_greedy_calls;
  check_coverable problem;
  let h = problem.hypergraph in
  let uncovered = Bitset.copy problem.universe in
  let candidates = candidate_edges problem in
  let chosen = ref [] in
  while not (Bitset.is_empty uncovered) do
    let best_gain = ref 0 and ties = ref 0 and pick = ref (-1) in
    List.iter
      (fun e ->
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
        end)
      candidates;
    assert (!pick >= 0);
    chosen := !pick :: !chosen;
    Bitset.diff_into ~src:(Hypergraph.edge_bits h !pick) ~dst:uncovered
  done;
  List.rev !chosen

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
   vertex contained in the fewest candidate hyperedges (fail-first), try
   each hyperedge containing it, prune with the k-set-cover bound. *)
let exact problem =
  Obs.Counter.incr c_exact_calls;
  check_coverable problem;
  let h = problem.hypergraph in
  let greedy_cover = greedy problem in
  let best = ref (Array.of_list greedy_cover) in
  let best_size = ref (List.length greedy_cover) in
  let cutoff = ref !best_size in
  let candidates = candidate_edges problem in
  let uncovered = Bitset.copy problem.universe in
  let chosen = ref [] in
  let rec branch depth =
    if Bitset.is_empty uncovered then begin
      if depth < !cutoff then begin
        best := Array.of_list !chosen;
        best_size := depth;
        cutoff := depth
      end
    end
    else
      let remaining = Bitset.cardinal uncovered in
      (* every further set covers at most the best gain any candidate
         still offers — much sharper than the static max-edge-size bound
         once the leftover vertices are scattered *)
      let max_gain =
        List.fold_left
          (fun acc e -> max acc (covered_count problem e uncovered))
          1 candidates
      in
      let lb =
        cover_size_lower_bound ~universe_size:remaining ~max_set_size:max_gain
      in
      if depth + lb < !cutoff then begin
        (* fail-first: pick the uncovered vertex with fewest options *)
        let pivot = ref (-1) and pivot_options = ref max_int in
        Bitset.iter
          (fun v ->
            let options = List.length (Hypergraph.incident h v) in
            if options < !pivot_options then begin
              pivot := v;
              pivot_options := options
            end)
          uncovered;
        (* try the pivot's hyperedges best-gain first: the greedy-like
           branch tightens the cutoff early and prunes the rest *)
        let ranked =
          Hypergraph.incident h !pivot
          |> List.map (fun e -> (-covered_count problem e uncovered, e))
          |> List.sort compare
        in
        List.iter
          (fun (neg_gain, e) ->
            if -neg_gain > 0 then begin
              let newly =
                Array.to_list (Hypergraph.edge h e)
                |> List.filter (Bitset.mem uncovered)
              in
              List.iter (Bitset.remove uncovered) newly;
              chosen := e :: !chosen;
              branch (depth + 1);
              chosen := List.tl !chosen;
              List.iter (Bitset.add uncovered) newly
            end)
          ranked
      end
  in
  branch 0;
  Array.to_list !best

let exact_size ?cache problem =
  match cache with
  | None -> List.length (exact problem)
  | Some table -> (
      match Hashtbl.find_opt table problem.universe with
      | Some size ->
          Obs.Counter.incr c_memo_hits;
          size
      | None ->
          Obs.Counter.incr c_memo_misses;
          let size = List.length (exact problem) in
          Hashtbl.add table (Bitset.copy problem.universe) size;
          size)
