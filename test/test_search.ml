module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Ordering = Hd_core.Ordering
module Eval = Hd_core.Eval
module Ghd = Hd_core.Ghd
module Solver = Hd_engine.Solver
module Ordering_search = Hd_search.Ordering_search

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a registry entry with its default seed, as the CLI runs it *)
let entry name ?(within = Hd_engine.Budget.create ()) problem =
  Hd_parallel.Registry.ensure ();
  (Option.get (Solver.find name)).run within problem

let astar_tw ?within g = entry "astar-tw" ?within (Solver.Graph g)
let bb_tw g = entry "bb-tw" (Solver.Graph g)
let astar_ghw ?within h = entry "astar-ghw" ?within (Solver.Hypergraph h)
let bb_ghw ?within h = entry "bb-ghw" ?within (Solver.Hypergraph h)

let exact_of result =
  match result.Solver.outcome with
  | Solver.Exact w -> w
  | Solver.Bounds { lb; ub } ->
      Alcotest.failf "expected exact result, got [%d,%d]" lb ub

let random_graph seed n p =
  let rng = Random.State.make [| seed |] in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then Graph.add_edge g u v
    done
  done;
  g

(* brute-force treewidth by trying all orderings (tiny n) *)
let brute_force_tw g =
  let n = Graph.n g in
  let ws = Eval.of_graph g in
  let best = ref max_int in
  let sigma = Array.init n Fun.id in
  let rec permute k =
    if k = n then best := min !best (Eval.tw_width ws sigma)
    else
      for i = k to n - 1 do
        let t = sigma.(k) in
        sigma.(k) <- sigma.(i);
        sigma.(i) <- t;
        permute (k + 1);
        let t = sigma.(k) in
        sigma.(k) <- sigma.(i);
        sigma.(i) <- t
      done
  in
  permute 0;
  !best

let brute_force_ghw h =
  let n = Hypergraph.n_vertices h in
  let ws = Eval.of_hypergraph h in
  let best = ref max_int in
  let sigma = Array.init n Fun.id in
  let rec permute k =
    if k = n then best := min !best (Eval.ghw_width_exact ws sigma)
    else
      for i = k to n - 1 do
        let t = sigma.(k) in
        sigma.(k) <- sigma.(i);
        sigma.(i) <- t;
        permute (k + 1);
        let t = sigma.(k) in
        sigma.(k) <- sigma.(i);
        sigma.(i) <- t
      done
  in
  permute 0;
  !best

(* --- A*-tw on graphs of known treewidth --- *)

let test_astar_known () =
  check_int "K5" 4 (exact_of (astar_tw (Graph.complete 5)));
  check_int "C7" 2 (exact_of (astar_tw (Graph.cycle 7)));
  check_int "P6" 1 (exact_of (astar_tw (Graph.path 6)));
  check_int "grid3" 3 (exact_of (astar_tw (Graph.grid 3 3)));
  check_int "grid4" 4 (exact_of (astar_tw (Graph.grid 4 4)))

let test_astar_trivial () =
  check_int "empty" (-1) (exact_of (astar_tw (Graph.create 0)));
  check_int "single" 0 (exact_of (astar_tw (Graph.create 1)));
  check_int "two isolated" 0 (exact_of (astar_tw (Graph.create 2)))

let test_astar_ordering_witness () =
  let g = Graph.grid 3 3 in
  let result = astar_tw g in
  match result.Solver.ordering with
  | None -> Alcotest.fail "expected a witness ordering"
  | Some sigma ->
      check "perm" true (Ordering.is_permutation sigma);
      let ws = Eval.of_graph g in
      check_int "witness width matches" (exact_of result) (Eval.tw_width ws sigma)

let test_astar_budget () =
  (* a zero-state budget forces the anytime path *)
  let g = Graph.grid 5 5 in
  let result =
    astar_tw ~within:(Hd_engine.Budget.create ~max_states:5 ()) g
  in
  (match result.Solver.outcome with
  | Solver.Bounds { lb; ub } ->
      check "lb<=ub" true (lb <= ub);
      check "lb sane (grid5 tw=5)" true (lb <= 5 && ub >= 5)
  | Solver.Exact w -> check_int "exact despite budget is fine" 5 w);
  check "has ordering" true (result.Solver.ordering <> None)

let prop_astar_matches_brute_force =
  QCheck.Test.make ~count:40 ~name:"A*-tw = brute force (n<=6)"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let g = random_graph seed n 0.5 in
      exact_of (astar_tw g) = brute_force_tw g)

(* the budget has no scheduler: one HDA-star worker, the A* that merges
   states with equal eliminated sets *)
let prop_astar_dedup_agrees =
  QCheck.Test.make ~count:25 ~name:"A*-tw dedup = A*-tw"
    QCheck.(make QCheck.Gen.(pair (2 -- 7) int))
    (fun (n, seed) ->
      let g = random_graph seed n 0.4 in
      exact_of (entry "astar-tw-par" (Solver.Graph g))
      = exact_of (astar_tw g))

(* --- BB-tw --- *)

let test_bb_known () =
  check_int "K6" 5 (exact_of (bb_tw (Graph.complete 6)));
  check_int "C8" 2 (exact_of (bb_tw (Graph.cycle 8)));
  check_int "grid4" 4 (exact_of (bb_tw (Graph.grid 4 4)))

let prop_bb_matches_astar =
  QCheck.Test.make ~count:30 ~name:"BB-tw = A*-tw"
    QCheck.(make QCheck.Gen.(pair (2 -- 7) int))
    (fun (n, seed) ->
      let g = random_graph seed n 0.45 in
      exact_of (bb_tw g) = exact_of (astar_tw g))

(* --- BB-ghw / A*-ghw --- *)

let test_ghw_clique () =
  (* K6 as binary hypergraph: cover 6 vertices with 2-edges -> ghw 3 *)
  let h = Hypergraph.of_graph (Graph.complete 6) in
  check_int "BB K6" 3 (exact_of (bb_ghw h));
  check_int "A* K6" 3 (exact_of (astar_ghw h))

let test_ghw_acyclic () =
  let h = Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 5 ] ] in
  check_int "BB acyclic" 1 (exact_of (bb_ghw h));
  check_int "A* acyclic" 1 (exact_of (astar_ghw h))

let test_ghw_example5 () =
  let h = Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 0; 4; 5 ]; [ 2; 3; 4 ] ] in
  check_int "example 5 ghw" 2 (exact_of (bb_ghw h));
  check_int "example 5 ghw (A*)" 2 (exact_of (astar_ghw h))

let test_ghw_witness () =
  let h = Hypergraph.of_graph (Graph.cycle 6) in
  let result = bb_ghw h in
  let w = exact_of result in
  match result.Solver.ordering with
  | None -> Alcotest.fail "expected a witness ordering"
  | Some sigma ->
      let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
      check "witness ghd valid" true (Ghd.valid h ghd);
      check_int "witness width" w (Ghd.width ghd)

let random_hypergraph seed ~n =
  let rng = Random.State.make [| seed |] in
  let m = 2 + Random.State.int rng 5 in
  let edges =
    List.init m (fun _ ->
        List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng n))
  in
  (* cover all vertices via singleton edges where needed *)
  let h0 = Hypergraph.create ~n (edges @ [ [ 0 ] ]) in
  let missing =
    List.filter (fun v -> not (Hypergraph.covers_vertex h0 v)) (List.init n Fun.id)
  in
  Hypergraph.create ~n (edges @ [ [ 0 ] ] @ List.map (fun v -> [ v ]) missing)

let prop_ghw_bb_matches_brute =
  QCheck.Test.make ~count:25 ~name:"BB-ghw = brute force (n<=6)"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let h = random_hypergraph seed ~n in
      exact_of (bb_ghw h) = brute_force_ghw h)

let prop_ghw_astar_matches_bb =
  QCheck.Test.make ~count:25 ~name:"A*-ghw = BB-ghw"
    QCheck.(make QCheck.Gen.(pair (2 -- 7) int))
    (fun (n, seed) ->
      let h = random_hypergraph seed ~n in
      exact_of (astar_ghw h) = exact_of (bb_ghw h))

let prop_ghw_le_tw_plus_one =
  (* ghw(H) <= tw(H) + 1: cover each bag vertex-by-vertex... more
     precisely ghw <= tw+1 holds when every vertex lies in some edge *)
  QCheck.Test.make ~count:20 ~name:"ghw <= tw + 1"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let h = random_hypergraph seed ~n in
      let tw = exact_of (astar_tw (Hypergraph.primal h)) in
      let ghw = exact_of (bb_ghw h) in
      ghw <= tw + 1)


let prop_ghw1_iff_acyclic =
  (* alpha-acyclicity characterises generalized hypertree width 1 *)
  QCheck.Test.make ~count:40 ~name:"ghw = 1 iff alpha-acyclic"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let h = random_hypergraph seed ~n in
      let acyclic = Hd_hypergraph.Acyclicity.is_acyclic h in
      let ghw = exact_of (bb_ghw h) in
      (ghw = 1) = acyclic)


(* --- det-k-decomp: hypertree width proper --- *)

module Dkd = Hd_search.Det_k_decomp

let test_hw_example5 () =
  let h = Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 0; 4; 5 ]; [ 2; 3; 4 ] ] in
  let w, hd = Dkd.hypertree_width h in
  check_int "hw example 5" 2 w;
  check "hd valid (4 conditions)" true (Dkd.valid h hd)

let test_hw_clique () =
  let h = Hypergraph.of_graph (Graph.complete 6) in
  let w, hd = Dkd.hypertree_width h in
  check_int "hw K6" 3 w;
  check "valid" true (Dkd.valid h hd);
  check "k=2 impossible" true (Dkd.decide h ~k:2 = None)

let test_hw_acyclic () =
  let h = Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 5 ] ] in
  let w, hd = Dkd.hypertree_width h in
  check_int "acyclic hw 1" 1 w;
  check "valid" true (Dkd.valid h hd)

let corpus_instance name =
  match List.assoc_opt "csp-synth" (Hd_instances.Mini_corpus.collections ()) with
  | Some files ->
      Hd_hypergraph.Hg_format.parse_string (List.assoc (name ^ ".hg") files)
  | None -> Alcotest.fail "csp-synth missing"

let test_hw_corpus_decide () =
  (* corpus instances where det-k refutes hw - 1 only after thousands of
     separators.  The enumeration prune may skip only subsets that
     cannot cover the connector, so the refutation tries exactly the
     separators and expands exactly the subproblems of the plain
     enumeration (pinned below) *)
  let counter name =
    Hd_obs.Obs.Counter.value (Hd_obs.Obs.Counter.make name)
  in
  List.iter
    (fun (name, hw, separators, subproblems) ->
      let h = corpus_instance name in
      Hd_obs.Obs.enable ();
      Hd_obs.Obs.reset ();
      let refuted = Dkd.decide h ~k:(hw - 1) = None in
      let tried = counter "detk.separators"
      and expanded = counter "detk.subproblems" in
      Hd_obs.Obs.disable ();
      check (Printf.sprintf "%s: none at k=%d" name (hw - 1)) true refuted;
      check_int (name ^ ": separators tried") separators tried;
      check_int (name ^ ": subproblems") subproblems expanded;
      match Dkd.decide h ~k:hw with
      | Some hd ->
          check (name ^ ": valid") true (Dkd.valid h hd);
          check (name ^ ": width") true (Hd_core.Ghd.width hd <= hw)
      | None -> Alcotest.failf "%s: no HD at k=%d" name hw)
    [ ("grid2d_06", 4, 8_221, 970); ("circuit_00", 3, 1_489, 238) ]

let test_hw_state_budget () =
  (* det-k ticks one state per expanded subproblem, so a state cap
     stops it; a timeout keeps the k refuted before it *)
  Hd_parallel.Registry.ensure ();
  let h = corpus_instance "grid2d_08" in
  let r, secs =
    Hd_engine.Clock.time @@ fun () ->
    Hd_engine.Engine.run_by_name ~seed:1 "hw-det-k"
      (Hd_engine.Budget.create ~max_states:4000 ())
      (Hd_engine.Solver.Hypergraph h)
  in
  check (Printf.sprintf "grid2d_08 within 5s (%.2fs)" secs) true (secs < 5.0);
  check "at most one state past the cap" true
    (r.Hd_engine.Solver.generated <= 4001);
  (match r.Hd_engine.Solver.outcome with
  | Hd_engine.Solver.Bounds { lb; ub } ->
      check "lb >= 3, the first k tried" true (lb >= 3 && lb <= ub)
  | Hd_engine.Solver.Exact w -> Alcotest.failf "grid2d_08: Exact %d" w);
  (* k = 3 is refuted after 5,489 subproblems, k = 4 needs 40,753 *)
  let lb_under cap h =
    match
      Dkd.hypertree_width ~within:(Hd_engine.Budget.create ~max_states:cap ()) h
    with
    | _ -> Alcotest.fail "expected a timeout"
    | exception Dkd.Timeout lb -> lb
  in
  check_int "grid2d_08: k = 3 refuted" 4 (lb_under 6000 h);
  (* circuit_02 starts at its ghw bound 2 and refutes k = 2 in 600 *)
  let h = corpus_instance "circuit_02" in
  check_int "circuit_02: ghw bound" 2 (Hd_bounds.Lower_bounds.ghw h);
  check_int "circuit_02: k = 2 refuted" 3 (lb_under 4000 h)

let prop_hw1_iff_acyclic =
  QCheck.Test.make ~count:40 ~name:"hw = 1 iff alpha-acyclic"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let h = random_hypergraph seed ~n in
      let w, _ = Dkd.hypertree_width h in
      (w = 1) = Hd_hypergraph.Acyclicity.is_acyclic h)

let prop_ghw_le_hw =
  QCheck.Test.make ~count:30 ~name:"ghw <= hw and hd is valid"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let h = random_hypergraph seed ~n in
      let hw, hd = Dkd.hypertree_width h in
      let ghw = exact_of (bb_ghw h) in
      ghw <= hw && Dkd.valid h hd)

let prop_hw_le_tw_plus_one =
  QCheck.Test.make ~count:20 ~name:"hw <= tw + 1"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let h = random_hypergraph seed ~n in
      let tw = exact_of (astar_tw (Hypergraph.primal h)) in
      let hw, _ = Dkd.hypertree_width h in
      hw <= tw + 1)

let test_descendant_condition_detects () =
  (* a GHD built by bucket elimination may violate condition 4; the
     checker must accept det-k-decomp output and correctly evaluate
     arbitrary GHDs *)
  let h = Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 0; 4; 5 ]; [ 2; 3; 4 ] ] in
  let rng = Random.State.make [| 3 |] in
  let ok = ref true in
  for _ = 1 to 20 do
    let sigma = Ordering.random rng 6 in
    let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
    (* the checker must at least run and be consistent with validity *)
    ignore (Dkd.special_condition_holds h ghd);
    if not (Ghd.valid h ghd) then ok := false
  done;
  check "ghds remain valid" true !ok


(* --- BB-fhw: exact fractional hypertree width --- *)

module Rat = Hd_lp.Rat

let exact_q_of (r : Rat.t Ordering_search.result) =
  match r.outcome with
  | Ordering_search.Exact q -> q
  | Ordering_search.Bounds { lb; ub } ->
      Alcotest.failf "expected exact fhw, got [%s,%s]" (Rat.to_string lb)
        (Rat.to_string ub)

(* exhaustive fhw: min over all orderings of the max bag rho* (tiny n);
   one shared workspace so the LP memo amortises across orderings *)
let brute_force_fhw h =
  let n = Hypergraph.n_vertices h in
  let ws = Eval.of_hypergraph h in
  let best = ref None in
  let sigma = Array.init n Fun.id in
  let rec permute k =
    if k = n then begin
      let w = Eval.fhw_width_q ws sigma in
      match !best with
      | Some b when Rat.compare b w <= 0 -> ()
      | _ -> best := Some w
    end
    else
      for i = k to n - 1 do
        let t = sigma.(k) in
        sigma.(k) <- sigma.(i);
        sigma.(i) <- t;
        permute (k + 1);
        let t = sigma.(k) in
        sigma.(k) <- sigma.(i);
        sigma.(i) <- t
      done
  in
  permute 0;
  Option.get !best

let test_fhw_triangle () =
  (* the separating instance: fhw = 3/2 strictly below ghw = hw = 2 *)
  let h = Hypergraph.create ~n:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
  let r = Ordering_search.Fhw.bb ~seed:1 h in
  check "triangle fhw = 3/2" true (Rat.equal (Rat.make 3 2) (exact_q_of r));
  check_int "triangle ghw = 2" 2 (exact_of (bb_ghw h));
  (* the registry view reports the ceiling *)
  Hd_parallel.Registry.ensure ();
  let via_registry =
    Hd_engine.Engine.run_by_name ~seed:1 "fhw-bb"
      (Hd_engine.Budget.create ())
      (Hd_engine.Solver.Hypergraph h)
  in
  check_int "registry reports ceil(3/2) = 2" 2
    (match via_registry.Hd_engine.Solver.outcome with
    | Hd_engine.Solver.Exact w -> w
    | Hd_engine.Solver.Bounds _ -> -1);
  (* the exact rational is recoverable from the witness ordering *)
  match r.Ordering_search.ordering with
  | None -> Alcotest.fail "expected a witness ordering"
  | Some sigma ->
      let ws = Eval.of_hypergraph h in
      check "witness realises 3/2" true
        (Rat.equal (Rat.make 3 2) (Eval.fhw_width_q ws sigma))

let test_fhw_memo_counted () =
  (* every bag rho* the search prices goes through the content-keyed
     LP memo, so a branching search on a grid must report hits *)
  let h = Hypergraph.of_graph (Graph.grid 4 4) in
  Hd_obs.Obs.enable ();
  Hd_obs.Obs.reset ();
  let r = Ordering_search.Fhw.bb ~seed:1 h in
  let value name =
    match
      List.find_opt
        (fun c -> Hd_obs.Obs.Counter.name c = name)
        (Hd_obs.Obs.Counter.all ())
    with
    | Some c -> Hd_obs.Obs.Counter.value c
    | None -> Alcotest.failf "counter %s not registered" name
  in
  let hits = value "lp.memo_hits" and misses = value "lp.memo_misses" in
  Hd_obs.Obs.disable ();
  check "search branched" true (r.Ordering_search.visited > 0);
  check "memo hits counted" true (hits > 0);
  check "one LP per miss" true (misses = value "lp.solves")

let prop_fhw_bb_matches_brute =
  QCheck.Test.make ~count:20 ~name:"BB-fhw = brute force (n<=5)"
    QCheck.(make QCheck.Gen.(pair (2 -- 5) int))
    (fun (n, seed) ->
      let h = random_hypergraph seed ~n in
      Rat.equal
        (exact_q_of (Ordering_search.Fhw.bb ~seed:1 h))
        (brute_force_fhw h))

let prop_width_hierarchy =
  (* fhw <= ghw <= hw <= 3*ghw + 1 (the last from Adler, Gottlob &
     Grohe via the paper's Section 9 discussion) *)
  QCheck.Test.make ~count:20 ~name:"fhw <= ghw <= hw <= 3*ghw + 1"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let h = random_hypergraph seed ~n in
      let fhw = exact_q_of (Ordering_search.Fhw.bb ~seed:1 h) in
      let ghw = exact_of (bb_ghw h) in
      let hw, hd = Dkd.hypertree_width h in
      Rat.compare_int fhw ghw <= 0
      && ghw <= hw
      && hw <= (3 * ghw) + 1
      && Dkd.valid h hd)

(* 3-9 vertices, hyperedges of 2-4 distinct vertices, every vertex
   covered *)
let random_cover_hypergraph rng =
  let n = 3 + Random.State.int rng 7 in
  let edge () =
    let size = Int.min n (2 + Random.State.int rng 3) in
    let rec pick acc =
      if List.length acc = size then acc
      else
        let v = Random.State.int rng n in
        pick (if List.mem v acc then acc else v :: acc)
    in
    pick []
  in
  let edges = List.init (1 + Random.State.int rng 6) (fun _ -> edge ()) in
  let covered v = List.exists (List.mem v) edges in
  let patches =
    List.filter_map
      (fun v -> if covered v then None else Some [ v; (v + 1) mod n ])
      (List.init n Fun.id)
  in
  Hypergraph.create ~n (edges @ patches)

(* The completion floor: [Fhw.live_lb] is the weight of the uniform
   vertex packing 1/k_live on the live set, which must be feasible, so
   by weak duality it never exceeds [Fhw.live]; the other costs have a
   zero floor.  No floor may draw from the oracle's random state. *)
let prop_live_floor =
  QCheck.Test.make ~count:200
    ~name:"live floor <= live, its uniform packing feasible"
    QCheck.(make QCheck.Gen.int)
    (fun seed ->
      let module B = Hd_search.Bag_cost in
      let module Elim_graph = Hd_graph.Elim_graph in
      let module Bitset = Hd_graph.Bitset in
      let rng = Random.State.make [| seed |] in
      let h = random_cover_hypergraph rng in
      let n = Hypergraph.n_vertices h in
      let p = B.Fhw.prepare h in
      let eg = Elim_graph.of_graph (B.Fhw.graph p) in
      let order = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      Array.iter (Elim_graph.eliminate eg)
        (Array.sub order 0 (Random.State.int rng (n + 1)));
      (* a floor priced by an oracle on a fresh random state, and
         whether that state was left undrawn *)
      let floor_of oracle live_lb =
        let r = Random.State.make [| seed |] in
        let next = Random.State.bits (Random.State.copy r) in
        let floor = live_lb (oracle r) eg in
        (floor, Random.State.bits r = next)
      in
      let zero_floor oracle live_lb = floor_of oracle live_lb = (0, true) in
      let live = Elim_graph.alive eg in
      let k_live =
        List.fold_left
          (fun k e ->
            Int.max k (Bitset.inter_cardinal (Hypergraph.edge_bits h e) live))
          1
          (List.init (Hypergraph.n_edges h) Fun.id)
      in
      let packing =
        List.map (fun v -> (v, Rat.make 1 k_live)) (Bitset.elements live)
      in
      let floor, undrawn = floor_of (B.Fhw.oracle p) B.Fhw.live_lb in
      let exact = B.Fhw.live (B.Fhw.oracle p rng) eg in
      undrawn
      && Rat.compare floor exact <= 0
      && Rat.equal floor (Rat.make (Bitset.cardinal live) k_live)
      && Hd_setcover.Fractional.verify_packing
           { Hd_setcover.Set_cover.universe = live; hypergraph = h }
           packing
      && zero_floor (B.Tw.oracle (B.Tw.prepare (B.Fhw.graph p))) B.Tw.live_lb
      && zero_floor (B.Ghw.oracle (B.Ghw.prepare h)) B.Ghw.live_lb
      && zero_floor
           (B.Ghw_greedy.oracle (B.Ghw_greedy.prepare h))
           B.Ghw_greedy.live_lb)

(* The minor bounds are pure functions of the live set.  One random
   vertex subset is eliminated in two random orders, each in a fresh
   oracle on its own random state that prices every prefix as a search
   would: both end at the bound a third fresh oracle computes in one
   call, a memo hit (the first oracle reaching the set again by the
   second order) returns it too, and no call draws from an oracle's
   random state. *)
let prop_minor_lb_pure =
  QCheck.Test.make ~count:200
    ~name:"minor_lb is a pure function of the live set"
    QCheck.(make QCheck.Gen.int)
    (fun seed ->
      let module B = Hd_search.Bag_cost in
      let module Elim_graph = Hd_graph.Elim_graph in
      let rng = Random.State.make [| seed |] in
      let n = 4 + Random.State.int rng 16 in
      let edges =
        List.init
          (n + Random.State.int rng (2 * n))
          (fun _ ->
            List.init (2 + Random.State.int rng 3) (fun _ ->
                Random.State.int rng n))
      in
      let h = Hypergraph.create ~n (edges @ List.init n (fun v -> [ v ])) in
      let shuffle xs =
        List.map snd
          (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) xs))
      in
      (* at least two vertices stay live *)
      let subset =
        List.filteri
          (fun i _ -> i < Random.State.int rng (n - 1))
          (shuffle (List.init n Fun.id))
      in
      let order_a = shuffle subset and order_b = shuffle subset in
      let pure ~graph ~oracle ~minor_lb ~equal =
        let fresh s =
          let r = Random.State.make [| seed; s |] in
          (r, oracle r, Random.State.bits (Random.State.copy r))
        in
        let undrawn (r, _, next) = Random.State.bits r = next in
        let walk (_, o, _) eg order =
          List.fold_left
            (fun _ v ->
              Elim_graph.eliminate eg v;
              minor_lb o eg)
            (minor_lb o eg) order
        in
        let a = fresh 1 and b = fresh 2 and c = fresh 3 in
        let eg_a = Elim_graph.of_graph graph in
        let by_a = walk a eg_a order_a in
        let by_b = walk b (Elim_graph.of_graph graph) order_b in
        let eg_c = Elim_graph.of_graph graph in
        List.iter (Elim_graph.eliminate eg_c) subset;
        let _, o_c, _ = c in
        let once = minor_lb o_c eg_c in
        List.iter (fun _ -> Elim_graph.restore_last eg_a) order_a;
        List.iter (Elim_graph.eliminate eg_a) order_b;
        let _, o_a, _ = a in
        let hit = minor_lb o_a eg_a in
        equal by_a once && equal by_b once && equal hit once
        && List.for_all undrawn [ a; b; c ]
      in
      let p_tw = B.Tw.prepare (Hypergraph.primal h) in
      let p_ghw = B.Ghw.prepare h and p_fhw = B.Fhw.prepare h in
      pure ~graph:(B.Tw.graph p_tw) ~oracle:(B.Tw.oracle p_tw)
        ~minor_lb:B.Tw.minor_lb ~equal:Int.equal
      && pure ~graph:(B.Ghw.graph p_ghw) ~oracle:(B.Ghw.oracle p_ghw)
           ~minor_lb:B.Ghw.minor_lb ~equal:Int.equal
      && pure ~graph:(B.Fhw.graph p_fhw) ~oracle:(B.Fhw.oracle p_fhw)
           ~minor_lb:B.Fhw.minor_lb ~equal:Rat.equal)

(* gamma_R takes its (degree, key, id) order one minimum at a time: on
   every step of a random contraction sequence it must pick what a
   reference that sorts all live vertices picks, from the same keys,
   and leave the random state at the same next draw *)
let prop_gamma_vertex_lazy =
  QCheck.Test.make ~count:200
    ~name:"gamma_vertex = sort-based reference (value and draws)"
    QCheck.(make QCheck.Gen.(triple int (1 -- 30) (float_range 0.05 0.9)))
    (fun (seed, n, density) ->
      let module Cg = Hd_graph.Contract_graph in
      let cg = Cg.of_graph (random_graph seed n density) in
      let reference live rng =
        let order =
          live
          |> List.map (fun v -> (Cg.degree cg v, Random.State.bits rng, v))
          |> List.sort compare
          |> List.map (fun (_, _, v) -> v)
        in
        let rec find preceding = function
          | [] -> None
          | v :: rest ->
              if List.for_all (Cg.mem_edge cg v) preceding then
                find (v :: preceding) rest
              else Some v
        in
        find [] order
      in
      let steps = Random.State.make [| seed; n |] in
      let rec agree live =
        live = []
        ||
        let r_lazy = Random.State.make [| seed; List.length live |] in
        let r_ref = Random.State.copy r_lazy in
        Cg.gamma_vertex cg ~rng:r_lazy = reference live r_ref
        && Random.State.bits r_lazy = Random.State.bits r_ref
        &&
        let v = List.nth live (Random.State.int steps (List.length live)) in
        if Cg.degree cg v = 0 then Cg.remove cg v
        else Cg.contract cg (Cg.min_degree_neighbor cg v ~rng:steps) v;
        agree (List.filter (( <> ) v) live)
      in
      agree (List.init n Fun.id))

(* --- .ghd witnesses: round-trip and corruption rejection --- *)

let test_ghd_io_roundtrip () =
  let h = Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 0; 4; 5 ]; [ 2; 3; 4 ] ] in
  let w, hd = Dkd.hypertree_width h in
  let text =
    Hd_core.Ghd_io.to_string ~n_vertices:6
      ~n_edges:(Hypergraph.n_edges h) hd
  in
  let hd2 = Hd_core.Ghd_io.parse_string text in
  check "roundtrip ghd valid" true (Ghd.valid h hd2);
  check "roundtrip special condition" true (Dkd.special_condition_holds h hd2);
  check_int "roundtrip width" w (Ghd.width hd2)

let test_ghd_corrupted_witness_rejected () =
  (* in-memory corruption: replace a bag's lambda with an edge that
     does not cover it — condition 3 must fail *)
  let h = Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 0; 4; 5 ]; [ 2; 3; 4 ] ] in
  let _, hd = Dkd.hypertree_width h in
  let bad_lambda = Array.copy hd.Ghd.lambda in
  (* find a node whose bag edge 1 ({0,4,5}) cannot cover *)
  let victim =
    let td = hd.Ghd.td in
    let rec find i =
      if i >= Hd_core.Tree_decomposition.n_nodes td then
        Alcotest.fail "no corruptible node"
      else
        let bag = Hd_core.Tree_decomposition.bag td i in
        if
          Hd_graph.Bitset.exists
            (fun v -> not (List.mem v [ 0; 4; 5 ]))
            bag
        then i
        else find (i + 1)
    in
    find 0
  in
  bad_lambda.(victim) <- [| 1 |];
  let corrupted = Ghd.make ~td:hd.Ghd.td ~lambda:bad_lambda in
  check "corrupted lambda rejected" false (Ghd.valid h corrupted);
  (* a GHD that satisfies conditions 1-3 but violates the descendant
     condition: path hypergraph {0,1},{1,2}; the root's lambda reaches
     vertex 2, which lives in the subtree but not in the root's bag *)
  let p = Hypergraph.create ~n:3 [ [ 0; 1 ]; [ 1; 2 ] ] in
  let td =
    Hd_core.Tree_decomposition.make
      ~bags:
        [|
          Hd_graph.Bitset.of_list 3 [ 0; 1 ];
          Hd_graph.Bitset.of_list 3 [ 1; 2 ];
        |]
      ~parent:[| -1; 0 |]
  in
  let sneaky = Ghd.make ~td ~lambda:[| [| 0; 1 |]; [| 1 |] |] in
  check "sneaky ghd passes conditions 1-3" true (Ghd.valid p sneaky);
  check "sneaky ghd fails the special condition" false
    (Dkd.special_condition_holds p sneaky);
  check "Dkd.valid rejects it" false (Dkd.valid p sneaky)

(* --- preprocessing --- *)

module Prep = Hd_search.Preprocess

let test_preprocess_tree () =
  (* trees reduce away completely with floor 1 *)
  let g = Graph.create 7 in
  List.iter
    (fun (u, v) -> Graph.add_edge g u v)
    [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5); (2, 6) ];
  let r = Prep.reduce g in
  check_int "floor" 1 r.Prep.low;
  check_int "all eliminated" 7 (List.length r.Prep.eliminated);
  check_int "kernel empty" 0 (Graph.m r.Prep.reduced)

let test_preprocess_cycle () =
  (* C6 has no simplicial vertex, but with the minor lower bound 2 the
     degree-2 vertices become strongly almost simplicial and the whole
     cycle reduces *)
  let g = Graph.cycle 6 in
  let r = Prep.reduce ~lb:2 g in
  check_int "floor" 2 r.Prep.low;
  check_int "kernel empty" 0 (Graph.m r.Prep.reduced);
  (* without the seed bound nothing fires on the first step *)
  let r0 = Prep.reduce g in
  check_int "no reduction at lb=0" 0 (List.length r0.Prep.eliminated)

let test_preprocess_solve_known () =
  List.iter
    (fun (g, tw) ->
      check_int "preprocessed treewidth" tw
        (exact_of
           (Hd_search.Solvers.of_int (Prep.treewidth_with_preprocessing g))))
    [
      (Graph.complete 6, 5);
      (Graph.cycle 9, 2);
      (Graph.path 9, 1);
      (Graph.grid 4 4, 4);
    ]

let prop_preprocess_agrees =
  QCheck.Test.make ~count:40 ~name:"preprocessing preserves treewidth"
    QCheck.(make QCheck.Gen.(pair (2 -- 8) int))
    (fun (n, seed) ->
      let g = random_graph seed n 0.4 in
      let direct = exact_of (astar_tw g) in
      let result =
        Hd_search.Solvers.of_int (Prep.treewidth_with_preprocessing g)
      in
      exact_of result = direct
      &&
      match result.Solver.ordering with
      | None -> false
      | Some sigma ->
          Ordering.is_permutation sigma
          &&
          let ws = Eval.of_graph g in
          Eval.tw_width ws sigma = direct)


(* --- the width analyzer --- *)

let test_widths_analyze () =
  let h = Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 0; 4; 5 ]; [ 2; 3; 4 ] ] in
  let r =
    Hd_search.Widths.analyze
      ~within:(Hd_engine.Budget.create ~time_limit:10.0 ()) h
  in
  check "not acyclic" false r.Hd_search.Widths.acyclic;
  let exact = function Solver.Exact w -> w | Solver.Bounds _ -> -1 in
  check_int "tw" 2 (exact r.Hd_search.Widths.tw);
  check_int "ghw" 2 (exact r.Hd_search.Widths.ghw);
  Alcotest.(check (option int)) "hw" (Some 2) r.Hd_search.Widths.hw;
  check "fhw <= ghw" true (Hd_lp.Rat.compare_int r.Hd_search.Widths.fhw 2 <= 0);
  (* an acyclic instance: every width is 1 *)
  let a = Hypergraph.create ~n:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] in
  let ra =
    Hd_search.Widths.analyze
      ~within:(Hd_engine.Budget.create ~time_limit:10.0 ()) a
  in
  check "acyclic" true ra.Hd_search.Widths.acyclic;
  check_int "acyclic ghw" 1 (exact ra.Hd_search.Widths.ghw);
  Alcotest.(check (option int)) "acyclic hw" (Some 1) ra.Hd_search.Widths.hw


let test_ghw_budget_states () =
  let h = Hypergraph.of_graph (Graph.grid 4 4) in
  let tight () = Hd_engine.Budget.create ~max_states:3 () in
  (match (bb_ghw ~within:(tight ()) h).Solver.outcome with
  | Solver.Bounds { lb; ub } -> check "bb bounds ordered" true (lb <= ub)
  | Solver.Exact _ -> () (* initial bounds may already close it *));
  match (astar_ghw ~within:(tight ()) h).Solver.outcome with
  | Solver.Bounds { lb; ub } -> check "a* bounds ordered" true (lb <= ub)
  | Solver.Exact _ -> ()

let test_bb_ghw_greedy_mode () =
  (* greedy covers give an upper-bound-only method: the result must be
     a Bounds outcome whose ub dominates the exact optimum *)
  let h = Hypergraph.create ~n:6 [ [ 0; 1; 2 ]; [ 0; 4; 5 ]; [ 2; 3; 4 ] ] in
  let exact = exact_of (bb_ghw h) in
  match (entry "bb-ghw-greedy" (Solver.Hypergraph h)).Solver.outcome with
  | Solver.Bounds { ub; _ } -> check "greedy ub >= exact" true (ub >= exact)
  | Solver.Exact w ->
      (* initial lb = ub short-circuit may still prove exactness *)
      check_int "short-circuit exact" exact w

let test_outcome_helpers () =
  check_int "value exact" 4 (Solver.value (Solver.Exact 4));
  check_int "value bounds" 7
    (Solver.value (Solver.Bounds { lb = 3; ub = 7 }));
  Alcotest.(check string) "pp exact" "4 (exact)"
    (Format.asprintf "%a" Solver.pp_outcome (Solver.Exact 4));
  Alcotest.(check string) "pp bounds" "[3,7]"
    (Format.asprintf "%a" Solver.pp_outcome (Solver.Bounds { lb = 3; ub = 7 }))

let test_det_k_timeout () =
  (* an already-passed deadline must raise, not answer *)
  let h = Hypergraph.of_graph (Graph.complete 8) in
  check "timeout raised" true
    (try
       ignore
         (Hd_search.Det_k_decomp.decide
            ~within:(Hd_engine.Budget.create ~time_limit:(-1.0) ())
            h ~k:3);
       false
     with Hd_search.Det_k_decomp.Timeout _ -> true)


let prop_ghw_subsumption_invariant =
  QCheck.Test.make ~count:25 ~name:"ghw invariant under subsumption removal"
    QCheck.(make QCheck.Gen.(pair (2 -- 6) int))
    (fun (n, seed) ->
      let h = random_hypergraph seed ~n in
      (* duplicate some edges and add subsets to stress the reduction *)
      let extra =
        List.filteri (fun i _ -> i mod 2 = 0) (Hypergraph.edges h)
      in
      let stressed = Hypergraph.create ~n (Hypergraph.edges h @ extra) in
      exact_of (bb_ghw stressed) = exact_of (bb_ghw h))

(* --- observability counters --- *)

module Obs = Hd_obs.Obs

let test_obs_counters_deterministic () =
  let g =
    match Hd_instances.Graphs.by_name "queen5_5" with
    | Some g -> g
    | None -> Alcotest.fail "queen5_5 instance missing"
  in
  (* a state budget (not a time limit) keeps the trajectory — and so
     every counter — identical across the two runs *)
  let snapshot () =
    Obs.enable ();
    Obs.reset ();
    ignore
      (Ordering_search.Tw.astar
         ~within:(Hd_engine.Budget.create ~max_states:20000 ())
         ~seed:7 g);
    let value name =
      match
        List.find_opt (fun c -> Obs.Counter.name c = name) (Obs.Counter.all ())
      with
      | Some c -> Obs.Counter.value c
      | None -> Alcotest.failf "counter %s not registered" name
    in
    let s =
      ( value "search.nodes_expanded",
        value "search.pr1_fires",
        value "search.pr2_fires",
        value "search.duplicates_pruned" )
    in
    Obs.disable ();
    s
  in
  let (expanded, pr1, pr2, dups) as first = snapshot () in
  let second = snapshot () in
  check "nodes_expanded > 0" true (expanded > 0);
  check "pr1 + pr2 >= 0" true (pr1 + pr2 >= 0);
  check "duplicates >= 0" true (dups >= 0);
  check "two seeded runs agree" true (first = second)

let test_pq () =
  let q = Hd_search.Pq.create ~compare ~dummy:0 in
  List.iter (Hd_search.Pq.push q) [ 5; 1; 4; 1; 3 ];
  check_int "size" 5 (Hd_search.Pq.size q);
  check_int "peek" 1 (Hd_search.Pq.peek q);
  let popped = List.init 5 (fun _ -> Hd_search.Pq.pop q) in
  Alcotest.(check (list int)) "sorted pops" [ 1; 1; 3; 4; 5 ] popped;
  check "empty" true (Hd_search.Pq.is_empty q);
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Hd_search.Pq.pop q))

let test_pq_no_leak () =
  (* popped elements must become unreachable: A* states hold their
     whole elimination path, so stale heap slots pin dead memory.  This
     test fails against the pre-fix pq.ml, which left popped elements
     live at data.(size) and grew the array with a live element. *)
  let n = 64 in
  let q = Hd_search.Pq.create ~compare:(fun a b -> compare !a !b) ~dummy:(ref (-1)) in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let cell = ref i in
    Weak.set weak i (Some cell);
    Hd_search.Pq.push q cell
  done;
  (* pop everything but one so the queue itself stays alive *)
  for _ = 1 to n - 1 do
    ignore (Hd_search.Pq.pop q)
  done;
  Gc.full_major ();
  let still_live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr still_live
  done;
  (* exactly the one un-popped element (plus, at most, the last popped
     value still referenced from this frame via [ignore]'s argument —
     which it is not) may survive *)
  check "popped elements collected" true (!still_live <= 1);
  check_int "queue still works" 1 (Hd_search.Pq.size q)

let prop_pq_sorts =
  QCheck.Test.make ~count:100 ~name:"pq pops in sorted order"
    QCheck.(list int)
    (fun xs ->
      let q = Hd_search.Pq.create ~compare ~dummy:0 in
      List.iter (Hd_search.Pq.push q) xs;
      let out = List.init (List.length xs) (fun _ -> Hd_search.Pq.pop q) in
      out = List.sort compare xs)

(* --- trajectory pins of the ordering-search core --- *)

module Hdastar = Hd_parallel.Hdastar

(* Outcome, visited and generated states of every search on four
   bundled instances at 400 states, seed 1 (HDA-star on a 0-worker
   scheduler, which is deterministic).  The rows were recorded from the
   per-width searches the core replaced, so any drift in pruning,
   bounds or child order shows here.  A*-tw and HDA*-tw are recorded on
   the core's A* flow, which offers one completion per expanded state
   where the old A*-tw offered one per generated child.  A state cap
   stops every search one generated state past it: BB checks its
   budget before each child, so a run of pruned children can no longer
   carry it further.  The tw and ghw rows' state counts were recorded
   again when the minor bounds stopped drawing from the search's random
   state: that moves the later greedy-cover draws, never an outcome.
   HDA*-tw's grid3d_4 lower bound rose from 11 to 13, with the same
   states, when its lone worker began raising the bound at every pop as
   the sequential A* does. *)
let trajectory_pins =
  [
    ("b06", "bb-tw", "[9,14]", 138, 401);
    ("b06", "bb-ghw", "[3,6]", 72, 401);
    ("b06", "bb-ghw-greedy", "[3,7]", 66, 401);
    ("b06", "fhw-bb", "[5/2,6]", 72, 401);
    ("b06", "astar-ghw", "[3,7]", 39, 401);
    ("b06", "astar-tw", "[9,14]", 130, 401);
    ("b06", "hdastar-ghw", "[3,7]", 39, 401);
    ("b06", "hdastar-tw", "[9,14]", 130, 401);
    ("grid3d_4", "bb-tw", "[11,19]", 65, 401);
    ("grid3d_4", "bb-ghw", "[4,8]", 54, 401);
    ("grid3d_4", "bb-ghw-greedy", "[4,8]", 43, 401);
    ("grid3d_4", "fhw-bb", "[3,7]", 41, 401);
    ("grid3d_4", "astar-ghw", "[4,8]", 24, 401);
    ("grid3d_4", "astar-tw", "[13,19]", 27, 401);
    ("grid3d_4", "hdastar-ghw", "[4,8]", 24, 401);
    ("grid3d_4", "hdastar-tw", "[13,19]", 27, 401);
    ("grid2d_10", "bb-tw", "[6,14]", 82, 401);
    ("grid2d_10", "bb-ghw", "[3,9]", 164, 401);
    ("grid2d_10", "bb-ghw-greedy", "[3,9]", 127, 401);
    ("grid2d_10", "fhw-bb", "[7/3,15/2]", 88, 401);
    ("grid2d_10", "astar-ghw", "[3,9]", 11, 401);
    ("grid2d_10", "astar-tw", "[6,16]", 21, 401);
    ("grid2d_10", "hdastar-ghw", "[3,9]", 11, 401);
    ("grid2d_10", "hdastar-tw", "[6,16]", 21, 401);
    ("bridge_3", "bb-tw", "6 (exact)", 0, 0);
    ("bridge_3", "bb-ghw", "3 (exact)", 22, 99);
    ("bridge_3", "bb-ghw-greedy", "[3,3]", 22, 99);
    ("bridge_3", "fhw-bb", "[7/3,19/7]", 176, 401);
    ("bridge_3", "astar-ghw", "3 (exact)", 22, 113);
    ("bridge_3", "astar-tw", "6 (exact)", 0, 0);
    ("bridge_3", "hdastar-ghw", "3 (exact)", 22, 113);
    ("bridge_3", "hdastar-tw", "6 (exact)", 0, 0)
  ]

let fhw_pin (r : Hd_lp.Rat.t Ordering_search.result) =
  let q = Hd_lp.Rat.to_string in
  ( (match r.outcome with
    | Ordering_search.Exact w -> q w ^ " (exact)"
    | Ordering_search.Bounds { lb; ub } -> Printf.sprintf "[%s,%s]" (q lb) (q ub)),
    r.visited,
    r.generated )

let pinned_run instance solver =
  let h =
    if instance = "bridge_3" then Hd_instances.Hypergraphs.bridge 3
    else Option.get (Hd_instances.Hypergraphs.by_name instance)
  in
  let g = Hypergraph.primal h in
  (* a fresh budget per run: a started budget keeps its clock *)
  let within () = Hd_engine.Budget.create ~max_states:400 () in
  let int r =
    let r = Hd_search.Solvers.of_int r in
    (Format.asprintf "%a" Solver.pp_outcome r.outcome, r.visited, r.generated)
  in
  match solver with
  | "bb-tw" -> int (Ordering_search.Tw.bb ~within:(within ()) ~seed:1 g)
  | "bb-ghw" -> int (Ordering_search.Ghw.bb ~within:(within ()) ~seed:1 h)
  | "bb-ghw-greedy" ->
      int (Ordering_search.Ghw_greedy.bb ~within:(within ()) ~seed:1 h)
  | "astar-ghw" ->
      int (Ordering_search.Ghw.astar ~within:(within ()) ~seed:1 h)
  | "astar-tw" -> int (Ordering_search.Tw.astar ~within:(within ()) ~seed:1 g)
  (* a budget without a scheduler: one HDA-star worker on this domain,
     the deterministic mode these counts pin *)
  | "hdastar-ghw" -> int (Hdastar.Ghw.solve ~within:(within ()) ~seed:1 h)
  | "hdastar-tw" -> int (Hdastar.Tw.solve ~within:(within ()) ~seed:1 g)
  | "fhw-bb" -> fhw_pin (Ordering_search.Fhw.bb ~within:(within ()) ~seed:1 h)
  | _ -> Alcotest.failf "no pinned solver %s" solver

(* fhw-bb on the width ladder's one non-exact op, the bundled corpus
   instance csp-synth/grid2d_06, at 4,000 states, seed 1.  Recorded
   before a vertex packing could settle a completion without its LP:
   that may only skip LPs, never move a state or a bound. *)
let corpus_pins = [ ("csp-synth", "grid2d_06", 4000, "[7/3,7/2]", 971, 4001) ]

let corpus_instance collection name =
  Hd_hypergraph.Hg_format.parse_string
    (List.assoc (name ^ ".hg")
       (List.assoc collection (Hd_instances.Mini_corpus.collections ())))

let corpus_pinned_run collection name states =
  fhw_pin
    (Ordering_search.Fhw.bb
       ~within:(Hd_engine.Budget.create ~max_states:states ())
       ~seed:1
       (corpus_instance collection name))

(* The deduplicating A*s on every csp-synth instance their prologue does
   not settle, at 4,000 states and seed 1, on a budget without a
   scheduler: one HDA-star worker.  Each row is the line of the
   sequential A* with a [seen] table that the one-worker HDA-star
   replaced, so the worker must draw from the prologue's random state
   and raise the lower bound at every pop as that A* did.  Ten rows
   (bridge_05, bridge_06, circuit_01 ghw by draws; grid2d_08, grid3d_04,
   circuit_02 to circuit_05 by lower bound) differed while it did
   neither. *)
let dedup_pins =
  [
    ("bridge_03", "ghw", "3 (exact)", 23, 121);
    ("bridge_05", "ghw", "3 (exact)", 41, 295);
    ("bridge_06", "ghw", "3 (exact)", 50, 409);
    ("bridge_08", "ghw", "3 (exact)", 68, 691);
    ("grid2d_04", "ghw", "3 (exact)", 1, 8);
    ("grid2d_06", "tw", "7 (exact)", 3, 21);
    ("grid2d_06", "ghw", "4 (exact)", 415, 3375);
    ("grid2d_08", "tw", "[7,11]", 614, 4001);
    ("grid2d_08", "ghw", "[3,6]", 389, 4001);
    ("grid3d_04", "tw", "[14,19]", 478, 4001);
    ("grid3d_04", "ghw", "[4,8]", 280, 4001);
    ("circuit_00", "ghw", "3 (exact)", 27, 167);
    ("circuit_01", "tw", "8 (exact)", 6, 6);
    ("circuit_01", "ghw", "3 (exact)", 75, 456);
    ("circuit_02", "tw", "10 (exact)", 1366, 3293);
    ("circuit_02", "ghw", "[3,5]", 538, 4001);
    ("circuit_03", "tw", "[9,12]", 720, 4001);
    ("circuit_03", "ghw", "[3,7]", 475, 4001);
    ("circuit_04", "tw", "[10,11]", 963, 4001);
    ("circuit_04", "ghw", "[3,6]", 712, 4001);
    ("circuit_05", "tw", "[11,17]", 663, 4001);
    ("circuit_05", "ghw", "[3,8]", 548, 4001);
  ]

let dedup_pinned_run name width =
  let h = corpus_instance "csp-synth" name in
  let problem =
    if width = "tw" then Solver.Graph (Hypergraph.primal h)
    else Solver.Hypergraph h
  in
  Hd_parallel.Registry.ensure ();
  let r =
    (Option.get (Solver.find ("astar-" ^ width ^ "-par"))).run ~seed:1
      (Hd_engine.Budget.create ~max_states:4000 ())
      problem
  in
  (Format.asprintf "%a" Solver.pp_outcome r.outcome, r.visited, r.generated)

(* The registry entries of the exact searches, run without a seed as
   the CLI and the server run them: grid5 to the end, b06 capped at 400
   states.  Each row is the entry, the span it opens and its outcome,
   visited and generated states on each instance, recorded when every
   entry still went through a per-solver wrapper module; they pin the
   entries' default seeds and span names.  The tw and ghw counts were
   recorded again with pure minor bounds, as for the trajectory pins;
   bb-ghw-greedy's grid5 run, one sample of a seed-sensitive greedy
   search, moved furthest (359 to 14,144 generated). *)
let registry_pins =
  [
    ( "astar-tw",
      "astar_tw.solve",
      [ ("5 (exact)", 31, 121); ("[9,13]", 121, 401) ] );
    ("bb-tw", "bb_tw.solve", [ ("5 (exact)", 31, 121); ("[9,14]", 138, 401) ]);
    ( "astar-ghw",
      "astar_ghw.solve",
      [ ("3 (exact)", 20, 297); ("[3,7]", 39, 401) ] );
    ("bb-ghw", "bb_ghw.solve", [ ("3 (exact)", 155, 819); ("[3,6]", 69, 401) ]);
    ( "bb-ghw-greedy",
      "bb_ghw.solve",
      [ ("[3,3]", 2673, 14144); ("[3,7]", 64, 401) ] );
    ( "fhw-bb",
      "bb_fhw.solve",
      [ ("3 (exact)", 468, 2307); ("[3,6]", 72, 401) ] );
  ]

let test_registry_pins () =
  let problems =
    [
      ( "grid5",
        Solver.Graph (Graph.grid 5 5),
        fun () -> Hd_engine.Budget.create () );
      ( "b06",
        Solver.Hypergraph (Option.get (Hd_instances.Hypergraphs.by_name "b06")),
        fun () -> Hd_engine.Budget.create ~max_states:400 () );
    ]
  in
  let root_spans () =
    match Hd_obs.Obs.Json.member "spans" (Hd_obs.Obs.report ()) with
    | Some (Hd_obs.Obs.Json.List spans) ->
        List.filter_map
          (fun s ->
            match Hd_obs.Obs.Json.member "name" s with
            | Some (Hd_obs.Obs.Json.String name) -> Some name
            | _ -> None)
          spans
    | _ -> []
  in
  List.iter
    (fun (name, span, rows) ->
      List.iter2
        (fun (instance, problem, within) (outcome, visited, generated) ->
          Hd_obs.Obs.enable ();
          Hd_obs.Obs.reset ();
          let r = entry name ~within:(within ()) problem in
          let spans = root_spans () in
          Hd_obs.Obs.disable ();
          let label what = Printf.sprintf "%s %s %s" instance name what in
          Alcotest.(check (list string)) (label "span") [ span ] spans;
          Alcotest.(check string) (label "outcome") outcome
            (Format.asprintf "%a" Solver.pp_outcome r.outcome);
          check_int (label "visited") visited r.visited;
          check_int (label "generated") generated r.generated)
        problems rows)
    registry_pins

let test_trajectory_pins () =
  let check_row label (outcome, visited, generated) (o, v, g) =
    Alcotest.(check string) (label "outcome") outcome o;
    check_int (label "visited") visited v;
    check_int (label "generated") generated g
  in
  List.iter
    (fun (instance, solver, outcome, visited, generated) ->
      check_row
        (Printf.sprintf "%s %s %s" instance solver)
        (outcome, visited, generated)
        (pinned_run instance solver))
    trajectory_pins;
  List.iter
    (fun (collection, name, states, outcome, visited, generated) ->
      check_row
        (Printf.sprintf "%s/%s fhw-bb at %d states %s" collection name states)
        (outcome, visited, generated)
        (corpus_pinned_run collection name states))
    corpus_pins;
  List.iter
    (fun (name, width, outcome, visited, generated) ->
      check_row
        (Printf.sprintf "csp-synth/%s astar-%s-par at 4000 states %s" name width)
        (outcome, visited, generated)
        (dedup_pinned_run name width))
    dedup_pins

let () =
  Alcotest.run "search"
    [
      ( "pq",
        [
          Alcotest.test_case "heap basics" `Quick test_pq;
          Alcotest.test_case "no space leak" `Quick test_pq_no_leak;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_pq_sorts ] );
      ( "astar-tw",
        [
          Alcotest.test_case "known treewidths" `Quick test_astar_known;
          Alcotest.test_case "trivial graphs" `Quick test_astar_trivial;
          Alcotest.test_case "witness ordering" `Quick test_astar_ordering_witness;
          Alcotest.test_case "budget" `Quick test_astar_budget;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_astar_matches_brute_force; prop_astar_dedup_agrees ] );
      ( "bb-tw",
        [ Alcotest.test_case "known treewidths" `Quick test_bb_known ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_bb_matches_astar ] );
      ( "ordering",
        [
          Alcotest.test_case "trajectory pins" `Quick test_trajectory_pins;
          Alcotest.test_case "registry pins" `Quick test_registry_pins;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "state budgets" `Quick test_ghw_budget_states;
          Alcotest.test_case "greedy cover mode" `Quick test_bb_ghw_greedy_mode;
          Alcotest.test_case "outcome helpers" `Quick test_outcome_helpers;
          Alcotest.test_case "det-k timeout" `Quick test_det_k_timeout;
        ] );
      ( "widths",
        [ Alcotest.test_case "analyze" `Quick test_widths_analyze ] );
      ( "bb-fhw",
        [
          Alcotest.test_case "triangle 3/2" `Quick test_fhw_triangle;
          Alcotest.test_case "memo hits counted" `Quick test_fhw_memo_counted;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_fhw_bb_matches_brute;
              prop_width_hierarchy;
              prop_live_floor;
              prop_minor_lb_pure;
              prop_gamma_vertex_lazy;
            ] );
      ( "ghd io",
        [
          Alcotest.test_case "roundtrip" `Quick test_ghd_io_roundtrip;
          Alcotest.test_case "corrupted witnesses rejected" `Quick
            test_ghd_corrupted_witness_rejected;
        ] );
      ( "obs",
        [
          Alcotest.test_case "deterministic counters" `Quick
            test_obs_counters_deterministic;
        ] );
      ( "preprocess",
        [
          Alcotest.test_case "tree" `Quick test_preprocess_tree;
          Alcotest.test_case "cycle" `Quick test_preprocess_cycle;
          Alcotest.test_case "known treewidths" `Quick test_preprocess_solve_known;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_preprocess_agrees ] );
      ( "det-k-decomp",
        [
          Alcotest.test_case "example 5" `Quick test_hw_example5;
          Alcotest.test_case "clique" `Quick test_hw_clique;
          Alcotest.test_case "acyclic" `Quick test_hw_acyclic;
          Alcotest.test_case "descendant condition" `Quick test_descendant_condition_detects;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_hw1_iff_acyclic; prop_ghw_le_hw; prop_hw_le_tw_plus_one ]
        @ [
            Alcotest.test_case "corpus decide" `Quick test_hw_corpus_decide;
            Alcotest.test_case "state budget" `Quick test_hw_state_budget;
          ] );
      ( "ghw",
        [
          Alcotest.test_case "clique" `Quick test_ghw_clique;
          Alcotest.test_case "acyclic" `Quick test_ghw_acyclic;
          Alcotest.test_case "example 5" `Quick test_ghw_example5;
          Alcotest.test_case "witness" `Quick test_ghw_witness;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_ghw_bb_matches_brute;
              prop_ghw_astar_matches_bb;
              prop_ghw_le_tw_plus_one;
              prop_ghw1_iff_acyclic;
              prop_ghw_subsumption_invariant;
            ] );
    ]
