module Graph = Hd_graph.Graph

let queen n =
  let g = Graph.create (n * n) in
  let id r c = (r * n) + c in
  for r1 = 0 to n - 1 do
    for c1 = 0 to n - 1 do
      for r2 = 0 to n - 1 do
        for c2 = 0 to n - 1 do
          if
            (r1, c1) < (r2, c2)
            && (r1 = r2 || c1 = c2 || abs (r1 - r2) = abs (c1 - c2))
          then Graph.add_edge g (id r1 c1) (id r2 c2)
        done
      done
    done
  done;
  g

(* Mycielski step: n' = 2n + 1, m' = 3m + n *)
let mycielski_step g =
  let n = Graph.n g in
  let g' = Graph.create ((2 * n) + 1) in
  List.iter
    (fun (u, v) ->
      Graph.add_edge g' u v;
      Graph.add_edge g' (u + n) v;
      Graph.add_edge g' u (v + n))
    (Graph.edges g);
  for v = 0 to n - 1 do
    Graph.add_edge g' (v + n) (2 * n)
  done;
  g'

(* DIMACS numbering: myciel2 = K2, myciel3 = C5 mycielskied once more =
   the Groetzsch graph (11, 20), i.e. k - 1 construction steps from K2 *)
let mycielski k =
  if k < 2 then invalid_arg "Graphs.mycielski: k >= 2 required";
  let rec iterate g steps = if steps = 0 then g else iterate (mycielski_step g) (steps - 1) in
  let k2 = Graph.of_edges 2 [ (0, 1) ] in
  iterate k2 (k - 1)

let grid n = Graph.grid n n

(* [chain ~copies g] glues [copies] copies of [g] end-to-end: copy [c]
   lives on vertices [c*(n-1) .. (c+1)*(n-1)], so each copy's last
   vertex coincides with the next copy's vertex 0 — a cut vertex.  The
   result has [copies] biconnected super-blocks (g's own blocks,
   repeated) and tw/ghw equal to g's: the multi-block benchmark shape
   for the engine's decompose-by-blocks pass. *)
let chain ~copies g =
  let n = Graph.n g in
  if copies <= 1 || n <= 1 then Graph.copy g
  else begin
    let out = Graph.create ((copies * (n - 1)) + 1) in
    for c = 0 to copies - 1 do
      let off = c * (n - 1) in
      List.iter (fun (u, v) -> Graph.add_edge out (off + u) (off + v)) (Graph.edges g)
    done;
    out
  end

let random_gnp ~seed ~n ~p =
  let rng = Random.State.make [| seed |] in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then Graph.add_edge g u v
    done
  done;
  g

let geometric ~seed ~n ~target_m =
  let rng = Random.State.make [| seed |] in
  let pts = Array.init n (fun _ -> (Random.State.float rng 1.0, Random.State.float rng 1.0)) in
  let dist2 (x1, y1) (x2, y2) =
    ((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0)
  in
  (* all pairwise distances, sorted: take the target_m closest pairs,
     which equals thresholding at the right radius *)
  let pairs = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      pairs := (dist2 pts.(u) pts.(v), u, v) :: !pairs
    done
  done;
  let sorted = List.sort compare !pairs in
  let g = Graph.create n in
  List.iteri
    (fun i (_, u, v) -> if i < target_m then Graph.add_edge g u v)
    sorted;
  g

(* interval graph whose interval length is tuned by binary search to
   land near [target_m] edges; the result is chordal with treewidth
   equal to the deepest overlap minus one.  It stands in for two DIMACS
   families: book character co-occurrence graphs are interval-like
   (characters appear in contiguous stretches of the narrative, which
   gives anna/david/huck/jean their low treewidths), and the
   register-interference graphs of straight-line code are interval
   graphs of live ranges, with treewidth the register pressure. *)
let interval_graph_raw rng ~n ~length =
  let intervals =
    Array.init n (fun _ ->
        let a = Random.State.float rng 1.0 in
        (a, a +. (length *. (0.5 +. Random.State.float rng 1.0))))
  in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let a1, b1 = intervals.(u) and a2, b2 = intervals.(v) in
      if a1 <= b2 && a2 <= b1 then Graph.add_edge g u v
    done
  done;
  g

let interval_graph ~seed ~n ~target_m =
  let rec search lo hi steps =
    let mid = (lo +. hi) /. 2.0 in
    let g = interval_graph_raw (Random.State.make [| seed |]) ~n ~length:mid in
    if steps = 0 then g
    else if Graph.m g > target_m then search lo mid (steps - 1)
    else if Graph.m g < target_m then search mid hi (steps - 1)
    else g
  in
  search 0.0 1.0 20

let leighton_like ~seed ~n ~target_m ~clique_size =
  let rng = Random.State.make [| seed |] in
  let g = Graph.create n in
  while Graph.m g < target_m do
    let size = max 2 (clique_size - Random.State.int rng 3) in
    let members = Array.init size (fun _ -> Random.State.int rng n) in
    Array.iter
      (fun u -> Array.iter (fun v -> Graph.add_edge g u v) members)
      members
  done;
  g

(* name, |V|, |E| as the paper's tables report them; several DIMACS
   .col files (queen, miles, the book graphs) list every edge in both
   directions, so the builders below target the undirected half where
   that applies *)
let catalogue :
    (string * int * int * (unit -> Graph.t)) list =
  let seed_of name = Hashtbl.hash name land 0xffff in
  let queen_entry n v e =
    (Printf.sprintf "queen%d_%d" n n, v, e, fun () -> queen n)
  in
  [
    queen_entry 5 25 320;
    queen_entry 6 36 580;
    queen_entry 7 49 952;
    queen_entry 8 64 1456;
    queen_entry 9 81 2112;
    queen_entry 10 100 2940;
    queen_entry 11 121 3960;
    queen_entry 12 144 5192;
    queen_entry 13 169 6656;
    queen_entry 14 196 8372;
    queen_entry 15 225 10360;
    queen_entry 16 256 12640;
    (* articulation-point chains: several biconnected copies of a hard
       core, for the engine's block-splitting benchmark *)
    ("blocks2-queen5_5", 49, 320, fun () -> chain ~copies:2 (queen 5));
    ("blocks3-grid4", 46, 72, fun () -> chain ~copies:3 (grid 4));
    ("myciel3", 11, 20, fun () -> mycielski 3);
    ("myciel4", 23, 71, fun () -> mycielski 4);
    ("myciel5", 47, 236, fun () -> mycielski 5);
    ("myciel6", 95, 755, fun () -> mycielski 6);
    ("myciel7", 191, 2360, fun () -> mycielski 7);
    ("grid2", 4, 4, fun () -> grid 2);
    ("grid3", 9, 12, fun () -> grid 3);
    ("grid4", 16, 24, fun () -> grid 4);
    ("grid5", 25, 40, fun () -> grid 5);
    ("grid6", 36, 60, fun () -> grid 6);
    ("grid7", 49, 84, fun () -> grid 7);
    ("grid8", 64, 112, fun () -> grid 8);
    ( "DSJC125.1", 125, 736,
      fun () -> random_gnp ~seed:(seed_of "DSJC125.1") ~n:125 ~p:0.1 );
    ( "DSJC125.5", 125, 3891,
      fun () -> random_gnp ~seed:(seed_of "DSJC125.5") ~n:125 ~p:0.5 );
    ( "DSJC125.9", 125, 6961,
      fun () -> random_gnp ~seed:(seed_of "DSJC125.9") ~n:125 ~p:0.9 );
    ( "DSJC250.1", 250, 3218,
      fun () -> random_gnp ~seed:(seed_of "DSJC250.1") ~n:250 ~p:0.1 );
    ( "DSJC250.5", 250, 15668,
      fun () -> random_gnp ~seed:(seed_of "DSJC250.5") ~n:250 ~p:0.5 );
    ( "DSJC250.9", 250, 27897,
      fun () -> random_gnp ~seed:(seed_of "DSJC250.9") ~n:250 ~p:0.9 );
    ("anna", 138, 986, fun () -> interval_graph ~seed:(seed_of "anna") ~n:138 ~target_m:493);
    ("david", 87, 812, fun () -> interval_graph ~seed:(seed_of "david") ~n:87 ~target_m:406);
    ("huck", 74, 602, fun () -> interval_graph ~seed:(seed_of "huck") ~n:74 ~target_m:301);
    ("jean", 80, 508, fun () -> interval_graph ~seed:(seed_of "jean") ~n:80 ~target_m:254);
    ("homer", 561, 3258, fun () -> interval_graph ~seed:(seed_of "homer") ~n:561 ~target_m:1629);
    ("games120", 120, 1276, fun () -> interval_graph ~seed:(seed_of "games120") ~n:120 ~target_m:638);
    ( "miles250", 128, 774,
      fun () -> geometric ~seed:(seed_of "miles250") ~n:128 ~target_m:387 );
    ( "miles500", 128, 2340,
      fun () -> geometric ~seed:(seed_of "miles500") ~n:128 ~target_m:1170 );
    ( "miles750", 128, 4226,
      fun () -> geometric ~seed:(seed_of "miles750") ~n:128 ~target_m:2113 );
    ( "miles1000", 128, 6432,
      fun () -> geometric ~seed:(seed_of "miles1000") ~n:128 ~target_m:3216 );
    ( "miles1500", 128, 10396,
      fun () -> geometric ~seed:(seed_of "miles1500") ~n:128 ~target_m:5198 );
    ( "le450_5a", 450, 5714,
      fun () ->
        leighton_like ~seed:(seed_of "le450_5a") ~n:450 ~target_m:5714 ~clique_size:5 );
    ( "le450_15a", 450, 8168,
      fun () ->
        leighton_like ~seed:(seed_of "le450_15a") ~n:450 ~target_m:8168 ~clique_size:15 );
    ( "le450_25a", 450, 8260,
      fun () ->
        leighton_like ~seed:(seed_of "le450_25a") ~n:450 ~target_m:8260 ~clique_size:25 );
    ( "le450_5b", 450, 5734,
      fun () ->
        leighton_like ~seed:(seed_of "le450_5b") ~n:450 ~target_m:5734 ~clique_size:5 );
    ( "le450_15b", 450, 8169,
      fun () ->
        leighton_like ~seed:(seed_of "le450_15b") ~n:450 ~target_m:8169 ~clique_size:15 );
    ( "le450_15c", 450, 16680,
      fun () ->
        leighton_like ~seed:(seed_of "le450_15c") ~n:450 ~target_m:16680 ~clique_size:15 );
    ( "le450_25c", 450, 17343,
      fun () ->
        leighton_like ~seed:(seed_of "le450_25c") ~n:450 ~target_m:17343 ~clique_size:25 );
    ( "le450_25d", 450, 17425,
      fun () ->
        leighton_like ~seed:(seed_of "le450_25d") ~n:450 ~target_m:17425 ~clique_size:25 );
    ( "mulsol.i.1", 197, 3925,
      fun () -> interval_graph ~seed:(seed_of "mulsol.i.1") ~n:197 ~target_m:3925 );
    ( "mulsol.i.2", 188, 3885,
      fun () -> interval_graph ~seed:(seed_of "mulsol.i.2") ~n:188 ~target_m:3885 );
    ( "mulsol.i.5", 186, 3973,
      fun () -> interval_graph ~seed:(seed_of "mulsol.i.5") ~n:186 ~target_m:3973 );
    ( "zeroin.i.2", 211, 3541,
      fun () -> interval_graph ~seed:(seed_of "zeroin.i.2") ~n:211 ~target_m:3541 );
    ( "zeroin.i.3", 206, 3540,
      fun () -> interval_graph ~seed:(seed_of "zeroin.i.3") ~n:206 ~target_m:3540 );
    ( "fpsol2.i.2", 451, 8691,
      fun () -> interval_graph ~seed:(seed_of "fpsol2.i.2") ~n:451 ~target_m:8691 );
    ( "fpsol2.i.3", 425, 8688,
      fun () -> interval_graph ~seed:(seed_of "fpsol2.i.3") ~n:425 ~target_m:8688 );
    ( "inithx.i.2", 645, 13979,
      fun () -> interval_graph ~seed:(seed_of "inithx.i.2") ~n:645 ~target_m:13979 );
    ( "inithx.i.3", 621, 13969,
      fun () -> interval_graph ~seed:(seed_of "inithx.i.3") ~n:621 ~target_m:13969 );
    ( "school1", 385, 19095,
      fun () ->
        leighton_like ~seed:(seed_of "school1") ~n:385 ~target_m:19095 ~clique_size:14 );
    ( "school1_nsh", 352, 14612,
      fun () ->
        leighton_like ~seed:(seed_of "school1_nsh") ~n:352 ~target_m:14612 ~clique_size:14 );
    ( "zeroin.i.1", 211, 4100,
      fun () -> interval_graph ~seed:(seed_of "zeroin.i.1") ~n:211 ~target_m:4100 );
    ( "fpsol2.i.1", 496, 11654,
      fun () -> interval_graph ~seed:(seed_of "fpsol2.i.1") ~n:496 ~target_m:11654 );
    ( "inithx.i.1", 864, 18707,
      fun () -> interval_graph ~seed:(seed_of "inithx.i.1") ~n:864 ~target_m:18707 );
  ]

let by_name name =
  List.find_map
    (fun (n, _, _, build) -> if n = name then Some (build ()) else None)
    catalogue

let names = List.map (fun (n, v, e, _) -> (n, v, e)) catalogue
