module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Lb = Hd_bounds.Lower_bounds
module Eval = Hd_core.Eval
module Ordering = Hd_core.Ordering

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_degeneracy () =
  check_int "K5" 4 (Lb.degeneracy (Graph.complete 5));
  check_int "C6" 2 (Lb.degeneracy (Graph.cycle 6));
  check_int "P5" 1 (Lb.degeneracy (Graph.path 5));
  check_int "grid4" 2 (Lb.degeneracy (Graph.grid 4 4))

let test_minor_min_width () =
  check_int "K5" 4 (Lb.minor_min_width (Graph.complete 5));
  check "C6 >= 2" true (Lb.minor_min_width (Graph.cycle 6) >= 2);
  check "tree <= 1" true (Lb.minor_min_width (Graph.path 7) <= 1);
  (* mmw dominates degeneracy on grids *)
  let g = Graph.grid 5 5 in
  check "grid5 mmw >= 3" true (Lb.minor_min_width g >= 3)

let test_minor_gamma_r () =
  check_int "K4" 3 (Lb.minor_gamma_r (Graph.complete 4));
  check "C5 >= 2" true (Lb.minor_gamma_r (Graph.cycle 5) >= 2)

let test_combined_le_treewidth () =
  (* known treewidths: K_n -> n-1, C_n -> 2, P_n -> 1, grid n -> n *)
  let cases =
    [
      (Graph.complete 6, 5);
      (Graph.cycle 8, 2);
      (Graph.path 9, 1);
      (Graph.grid 3 3, 3);
      (Graph.grid 4 4, 4);
    ]
  in
  List.iter
    (fun (g, tw) ->
      let lb = Lb.treewidth g in
      check "lb <= tw" true (lb <= tw);
      check "lb >= 1" true (lb >= 1))
    cases

let test_ghw_bound () =
  (* clique K6 as binary hypergraph: ghw = 3, k = 2, tw lb = 5 ->
     bound = ceil(6/2) = 3: tight here *)
  let h = Hypergraph.of_graph (Graph.complete 6) in
  check_int "K6 ghw lb" 3 (Lb.ghw h);
  (* one big hyperedge: ghw = 1, bound must not exceed it *)
  let h2 = Hypergraph.create ~n:5 [ [ 0; 1; 2; 3; 4 ] ] in
  check_int "single edge ghw lb" 1 (Lb.ghw h2)

let prop_lb_le_ub =
  QCheck.Test.make ~count:100 ~name:"treewidth lb <= min-fill ub"
    QCheck.(make QCheck.Gen.(pair (2 -- 12) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Graph.create n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.float rng 1.0 < 0.4 then Graph.add_edge g u v
        done
      done;
      let lb = Lb.treewidth ~rng g in
      let ws = Eval.of_graph g in
      let ub =
        Eval.tw_width ws (Hd_core.Ordering_heuristics.min_fill rng g)
      in
      lb <= ub)

let prop_ghw_lb_le_exact_eval =
  QCheck.Test.make ~count:60 ~name:"ghw lb <= exact width of any ordering"
    QCheck.(make QCheck.Gen.(pair (2 -- 7) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = 1 + Random.State.int rng 5 in
      let edges =
        List.init m (fun _ ->
            List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng n))
        @ [ List.init n Fun.id ]
      in
      let h = Hypergraph.create ~n edges in
      let lb = Lb.ghw ~rng h in
      let ws = Eval.of_hypergraph h in
      (* lb must not exceed the width of the best of a few orderings *)
      let best = ref max_int in
      for _ = 1 to 10 do
        best := min !best (Eval.ghw_width_exact ws (Ordering.random rng n))
      done;
      lb <= !best)


let prop_degeneracy_le_mmw =
  QCheck.Test.make ~count:100 ~name:"degeneracy <= minor-min-width"
    QCheck.(make QCheck.Gen.(pair (2 -- 12) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Graph.create n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.float rng 1.0 < 0.4 then Graph.add_edge g u v
        done
      done;
      (* contraction dominates deletion step-by-step; empirically mmw
         never drops below MMD on these families (both are valid lbs
         regardless) *)
      Lb.degeneracy g <= Lb.minor_min_width ~rng g)

let test_elim_snapshot_bound () =
  (* the bound computed on an elimination-graph snapshot must match the
     bound on the materialised remaining graph *)
  let g = Graph.grid 4 4 in
  let eg = Hd_graph.Elim_graph.of_graph g in
  Hd_graph.Elim_graph.eliminate eg 0;
  Hd_graph.Elim_graph.eliminate eg 5;
  let rng1 = Random.State.make [| 9 |] in
  let workspace = Hd_graph.Contract_graph.create 16 in
  let via_elim = Lb.treewidth_of_elim ~rng:rng1 ~trials:2 ~workspace eg in
  let rng2 = Random.State.make [| 9 |] in
  let via_graph =
    Lb.treewidth ~rng:rng2 ~trials:2 (Hd_graph.Elim_graph.to_graph eg)
  in
  check_int "snapshot = materialised" via_graph via_elim

(* --- differential checks against the list-based contraction --- *)

(* The contraction bounds as they ran before the degree-tracked kernel:
   every step lists the live vertices or a neighbourhood and recounts
   each degree.  Kept as the reference the kernel must match, value and
   random draws alike. *)
module Reference = struct
  module Bitset = Hd_graph.Bitset
  module Elim_graph = Hd_graph.Elim_graph

  type cg = { adj : Bitset.t array; live : Bitset.t; mutable live_count : int }

  let of_graph g =
    let size = Graph.n g in
    {
      adj = Array.init size (fun v -> Bitset.copy (Graph.adjacency g v));
      live = Bitset.full size;
      live_count = size;
    }

  let of_elim_graph eg =
    let size = Elim_graph.capacity eg in
    {
      adj = Array.init size (fun v -> Bitset.copy (Elim_graph.adjacency eg v));
      live = Bitset.copy (Elim_graph.alive eg);
      live_count = Elim_graph.n_alive eg;
    }

  let alive_list t = Bitset.elements t.live
  let degree t v = Bitset.cardinal t.adj.(v)
  let neighbors t v = Bitset.elements t.adj.(v)
  let mem_edge t u v = u <> v && Bitset.mem t.adj.(u) v

  let random_min vs ~key ~rng =
    let best_key = ref max_int and count = ref 0 and pick = ref (-1) in
    List.iter
      (fun v ->
        let k = key v in
        if k < !best_key then begin
          best_key := k;
          count := 1;
          pick := v
        end
        else if k = !best_key then begin
          incr count;
          if Random.State.int rng !count = 0 then pick := v
        end)
      vs;
    if !pick < 0 then raise Not_found;
    !pick

  let min_degree_vertex t ~rng = random_min (alive_list t) ~key:(degree t) ~rng
  let min_degree_neighbor t v ~rng = random_min (neighbors t v) ~key:(degree t) ~rng

  let remove t v =
    Bitset.iter (fun u -> Bitset.remove t.adj.(u) v) t.adj.(v);
    Bitset.clear t.adj.(v);
    Bitset.remove t.live v;
    t.live_count <- t.live_count - 1

  let contract t u v =
    let merged = t.adj.(v) in
    Bitset.iter (fun w -> Bitset.remove t.adj.(w) v) merged;
    Bitset.remove t.live v;
    t.live_count <- t.live_count - 1;
    Bitset.remove merged u;
    Bitset.union_into ~src:merged ~dst:t.adj.(u);
    Bitset.iter (fun w -> Bitset.add t.adj.(w) u) merged;
    Bitset.clear merged

  let degeneracy g =
    let cg = of_graph g in
    let lb = ref 0 in
    let rng = Random.State.make [| 0 |] in
    while cg.live_count > 0 do
      let v = min_degree_vertex cg ~rng in
      lb := max !lb (degree cg v);
      remove cg v
    done;
    !lb

  let contraction_bound_on ~rng make_cg ~pick =
    let cg = make_cg () in
    let lb = ref 0 in
    while cg.live_count > 0 do
      match pick cg rng with
      | None ->
          lb := max !lb (cg.live_count - 1);
          List.iter (remove cg) (alive_list cg)
      | Some v ->
          lb := max !lb (degree cg v);
          if degree cg v = 0 then remove cg v
          else
            let u = min_degree_neighbor cg v ~rng in
            contract cg u v
    done;
    !lb

  let minor_min_width_on ~rng make_cg =
    contraction_bound_on ~rng make_cg ~pick:(fun cg rng ->
        Some (min_degree_vertex cg ~rng))

  let minor_gamma_r_on ~rng make_cg =
    contraction_bound_on ~rng make_cg ~pick:(fun cg rng ->
        let by_degree =
          alive_list cg
          |> List.map (fun v -> (degree cg v, Random.State.bits rng, v))
          |> List.sort compare
          |> List.map (fun (_, _, v) -> v)
        in
        let rec find preceding = function
          | [] -> None
          | v :: rest ->
              if List.for_all (fun u -> mem_edge cg v u) preceding then
                find (v :: preceding) rest
              else Some v
        in
        find [] by_degree)

  let minor_min_width ~rng g = minor_min_width_on ~rng (fun () -> of_graph g)
  let minor_gamma_r ~rng g = minor_gamma_r_on ~rng (fun () -> of_graph g)

  let best_over_trials ~rng ~trials f =
    let rec go i acc = if i >= trials then acc else go (i + 1) (max acc (f rng)) in
    go 0 0

  let treewidth_of_elim ~rng ~trials eg =
    let make_cg () = of_elim_graph eg in
    best_over_trials ~rng ~trials (fun rng ->
        max (minor_min_width_on ~rng make_cg) (minor_gamma_r_on ~rng make_cg))

  let ghw_of_elim ~rng ~trials ~max_edge_size eg =
    let k = max 1 max_edge_size in
    let bound_of d = (d + 1 + k - 1) / k in
    best_over_trials ~rng ~trials (fun rng ->
        let cg = of_elim_graph eg in
        let lb = ref 0 in
        while cg.live_count > 0 do
          let v = min_degree_vertex cg ~rng in
          lb := max !lb (bound_of (degree cg v));
          if degree cg v = 0 then remove cg v
          else
            let u = min_degree_neighbor cg v ~rng in
            contract cg u v
        done;
        !lb)
end

(* a random graph on [n] vertices, then a random elimination prefix of
   [depth] vertices *)
let random_elim_graph rng ~n ~density ~depth =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < density then Graph.add_edge g u v
    done
  done;
  let eg = Hd_graph.Elim_graph.of_graph g in
  for _ = 1 to min depth n do
    let live = Array.of_list (Hd_graph.Elim_graph.alive_list eg) in
    Hd_graph.Elim_graph.eliminate eg
      live.(Random.State.int rng (Array.length live))
  done;
  (g, eg)

(* [f] and [reference] agree on the value and leave equal random
   states: the next draw from copies of both is the same *)
let same_value_and_draws ~seed f reference =
  let rng_a = Random.State.make [| seed |] and rng_b = Random.State.make [| seed |] in
  let a = f rng_a and b = reference rng_b in
  a = b
  && Random.State.bits (Random.State.copy rng_a)
     = Random.State.bits (Random.State.copy rng_b)

let prop_kernel_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"contraction kernel = list-based reference (values and draws)"
    QCheck.(
      make
        Gen.(
          quad (1 -- 40) (float_range 0.05 0.9) (0 -- 20) (pair int (1 -- 3))))
    (fun (n, density, depth, (seed, trials)) ->
      let rng = Random.State.make [| seed; n |] in
      let g, eg = random_elim_graph rng ~n ~density ~depth in
      let rest = Hd_graph.Elim_graph.to_graph eg in
      (* one workspace for every check: reloads must not leak state *)
      let workspace = Hd_graph.Contract_graph.create n in
      let k = 1 + (seed land 3) in
      Lb.degeneracy g = Reference.degeneracy g
      && Lb.degeneracy rest = Reference.degeneracy rest
      && same_value_and_draws ~seed
           (fun rng -> Lb.minor_min_width ~rng rest)
           (fun rng -> Reference.minor_min_width ~rng rest)
      && same_value_and_draws ~seed
           (fun rng -> Lb.minor_gamma_r ~rng rest)
           (fun rng -> Reference.minor_gamma_r ~rng rest)
      && same_value_and_draws ~seed
           (fun rng -> Lb.treewidth_of_elim ~rng ~trials ~workspace eg)
           (fun rng -> Reference.treewidth_of_elim ~rng ~trials eg)
      && same_value_and_draws ~seed
           (fun rng ->
             Lb.ghw_of_elim ~rng ~trials ~workspace ~max_edge_size:k eg)
           (fun rng -> Reference.ghw_of_elim ~rng ~trials ~max_edge_size:k eg)
      && same_value_and_draws ~seed
           (fun rng -> Lb.treewidth ~rng ~trials rest)
           (fun rng ->
             Reference.treewidth_of_elim ~rng ~trials
               (Hd_graph.Elim_graph.of_graph rest)))

let () =
  Alcotest.run "bounds"
    [
      ( "treewidth",
        [
          Alcotest.test_case "degeneracy" `Quick test_degeneracy;
          Alcotest.test_case "minor-min-width" `Quick test_minor_min_width;
          Alcotest.test_case "minor-gamma_R" `Quick test_minor_gamma_r;
          Alcotest.test_case "combined vs known tw" `Quick test_combined_le_treewidth;
        ] );
      ("ghw", [ Alcotest.test_case "tw-ksc-width" `Quick test_ghw_bound ]);
      ( "elim snapshot",
        [ Alcotest.test_case "matches materialised graph" `Quick test_elim_snapshot_bound ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lb_le_ub;
            prop_ghw_lb_le_exact_eval;
            prop_degeneracy_le_mmw;
            prop_kernel_matches_reference;
          ]
      );
    ]
