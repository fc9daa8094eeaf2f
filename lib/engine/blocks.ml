module Graph = Hd_graph.Graph
module Elim_graph = Hd_graph.Elim_graph
module Chordal = Hd_graph.Chordal
module Hypergraph = Hd_hypergraph.Hypergraph
module Incumbent = Hd_core.Incumbent
module Obs = Hd_obs.Obs

let c_blocks = Obs.Counter.make "engine.blocks"
let c_block_skips = Obs.Counter.make "engine.block_skips"

type block = { vertices : int array; attach : int }

(* ------------------------------------------------------------------ *)
(* Biconnected components (iterative Hopcroft–Tarjan on an edge stack) *)
(* ------------------------------------------------------------------ *)

let split g =
  let n = Graph.n g in
  let disc = Array.make n (-1) in
  let low = Array.make n 0 in
  let timer = ref 0 in
  let estack = ref [] in
  (* (sorted global vertices, global attach) — newest first *)
  let raw = ref [] in
  let emit ~attach edges =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (a, b) ->
        Hashtbl.replace tbl a ();
        Hashtbl.replace tbl b ())
      edges;
    let vs =
      List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) tbl [])
    in
    raw := (Array.of_list vs, attach) :: !raw
  in
  (* pop every edge pushed since the tree edge (u, v), inclusive: those
     are exactly one biconnected component, attached at u *)
  let pop_block u v =
    let rec pop acc =
      match !estack with
      | [] -> acc
      | (a, b) :: tl ->
          estack := tl;
          let acc = (a, b) :: acc in
          if a = u && b = v then acc else pop acc
    in
    emit ~attach:u (pop [])
  in
  for root = 0 to n - 1 do
    if disc.(root) < 0 then begin
      let before = !raw in
      disc.(root) <- !timer;
      low.(root) <- !timer;
      incr timer;
      let stack = ref [ (root, -1, ref (Graph.neighbors g root)) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (v, parent, rest) :: up -> (
            match !rest with
            | [] -> (
                stack := up;
                match up with
                | (u, _, _) :: _ ->
                    if low.(v) < low.(u) then low.(u) <- low.(v);
                    if low.(v) >= disc.(u) then pop_block u v
                | [] -> ())
            | w :: tl ->
                rest := tl;
                if disc.(w) < 0 then begin
                  disc.(w) <- !timer;
                  low.(w) <- !timer;
                  incr timer;
                  estack := (v, w) :: !estack;
                  stack := (w, v, ref (Graph.neighbors g w)) :: !stack
                end
                else if w <> parent && disc.(w) < disc.(v) then begin
                  estack := (v, w) :: !estack;
                  if disc.(w) < low.(v) then low.(v) <- disc.(w)
                end)
      done;
      if !raw == before then
        (* isolated vertex: its own edgeless block *)
        raw := ([| root |], -1) :: !raw
      else
        (* the component's last-popped block contains [root]: it roots
           the block-cut tree and has no parent cut vertex *)
        match !raw with
        | (vs, _) :: tl -> raw := (vs, -1) :: tl
        | [] -> assert false
    end
  done;
  List.rev_map
    (fun (vertices, attach) ->
      let attach =
        if attach < 0 then -1
        else begin
          let i = ref 0 in
          while vertices.(!i) <> attach do
            incr i
          done;
          !i
        end
      in
      { vertices; attach })
    !raw

(* ------------------------------------------------------------------ *)
(* Sub-problem extraction                                              *)
(* ------------------------------------------------------------------ *)

let induced_graph g bl local =
  let nb = Array.length bl.vertices in
  let sub = Graph.create nb in
  Array.iteri
    (fun i v ->
      List.iter
        (fun w ->
          (* any edge between two block vertices belongs to this block:
             two blocks share at most one vertex *)
          if local.(w) > i then Graph.add_edge sub i local.(w))
        (Graph.neighbors g v))
    bl.vertices;
  sub

(* the hyperedges lying entirely inside the block, relabelled: every
   hyperedge is a primal clique and hence inside exactly one block
   (singleton edges may repeat across the blocks of a cut vertex,
   which is harmless) *)
let induced_hypergraph h bl local =
  let nb = Array.length bl.vertices in
  let edges = ref [] in
  for e = Hypergraph.n_edges h - 1 downto 0 do
    let vs = Hypergraph.edge h e in
    if
      Array.length vs > 0
      && Array.for_all (fun v -> local.(v) >= 0) vs
    then edges := Array.to_list (Array.map (fun v -> local.(v)) vs) :: !edges
  done;
  Hypergraph.create ~n:nb !edges

(* ------------------------------------------------------------------ *)
(* Witness recombination                                               *)
(* ------------------------------------------------------------------ *)

(* [reroot bg sigma ~attach] turns an elimination ordering of the block
   graph [bg] into one of no larger width that eliminates [attach]
   last: collect sigma's fill-in, then run maximum cardinality search
   on the (chordal) filled graph starting from [attach].  Any MCS of a
   chordal graph is a perfect elimination ordering, and every PEO of
   the filled graph has width = clique number - 1 = width of [sigma]. *)
let reroot bg sigma ~attach =
  let nb = Array.length sigma in
  if nb = 0 || sigma.(0) = attach then sigma
  else begin
    let eg = Elim_graph.of_graph bg in
    let fill = ref [] in
    for i = nb - 1 downto 0 do
      Elim_graph.eliminate eg sigma.(i);
      match Elim_graph.last_step eg with
      | Some step -> fill := step.Elim_graph.fill @ !fill
      | None -> ()
    done;
    let filled = Graph.copy bg in
    List.iter (fun (a, b) -> Graph.add_edge filled a b) !fill;
    Chordal.mcs_ordering ~start:attach filled
  end

(* ------------------------------------------------------------------ *)
(* The block-splitting driver                                          *)
(* ------------------------------------------------------------------ *)

let trivial_ub (s : Solver.t) p =
  match s.Solver.kind with
  | Solver.Tw -> max 0 (Solver.n_vertices p - 1)
  | Solver.Ghw | Solver.Fhw | Solver.Hw ->
      max 1 (Hypergraph.n_edges (Solver.hypergraph_of p))

(* every block's sub-problem in local ids, paired with its graph (the
   witness re-rooting needs it), built through one scratch map on the
   calling domain *)
let block_problems p g bls =
  let local = Array.make (Graph.n g) (-1) in
  Array.map
    (fun bl ->
      Array.iteri (fun j v -> local.(v) <- j) bl.vertices;
      let bg = induced_graph g bl local in
      let subp =
        match p with
        | Solver.Graph _ -> Solver.Graph bg
        | Solver.Hypergraph h ->
            Solver.Hypergraph (induced_hypergraph h bl local)
      in
      Array.iter (fun v -> local.(v) <- -1) bl.vertices;
      (bg, subp))
    bls

(* width = max over blocks; the witness is stitched back to front
   (first elimination at index n-1), [None] once any block lacks one *)
let combine (s : Solver.t) b p n bls problems results =
  let visited = ref 0 and generated = ref 0 in
  let lb = ref 0 and ub = ref 0 in
  let all_exact = ref true in
  (* true while every block was actually attempted *)
  let complete = ref true in
  let sigma = ref (Some (Array.make n (-1))) in
  let pos = ref (n - 1) in
  Array.iteri
    (fun i bl ->
      match results.(i) with
      | None ->
          complete := false;
          all_exact := false;
          sigma := None
      | Some (r : Solver.result) -> (
          visited := !visited + r.Solver.visited;
          generated := !generated + r.Solver.generated;
          let l, u = Solver.bounds_of r.Solver.outcome in
          lb := max !lb l;
          ub := max !ub u;
          (match r.Solver.outcome with
          | Solver.Exact _ -> ()
          | Solver.Bounds _ -> all_exact := false);
          match (r.Solver.ordering, !sigma) with
          | Some bsigma, Some out
            when Array.length bsigma = Array.length bl.vertices ->
              let bsigma =
                if bl.attach >= 0 then
                  reroot (fst problems.(i)) bsigma ~attach:bl.attach
                else bsigma
              in
              (* non-root blocks leave their attach vertex to the
                 parent block, where it is eliminated later *)
              let stop = if bl.attach >= 0 then 1 else 0 in
              for j = Array.length bsigma - 1 downto stop do
                out.(!pos) <- bl.vertices.(bsigma.(j));
                decr pos
              done
          | _ -> sigma := None))
    bls;
  if !pos >= 0 then sigma := None;
  let ordering = !sigma in
  let outcome =
    if not !complete then
      Solver.Bounds { lb = !lb; ub = max !lb (trivial_ub s p) }
    else if !all_exact && !lb = !ub then Solver.Exact !ub
    else Solver.Bounds { lb = min !lb !ub; ub = !ub }
  in
  (* restore the portfolio contract: combined bounds and witness flow
     to the caller's incumbent *)
  (match Budget.incumbent b with
  | None -> ()
  | Some inc ->
      (match (outcome, ordering) with
      | (Solver.Exact w | Solver.Bounds { ub = w; _ }), Some wit ->
          ignore (Incumbent.offer_ub inc ~witness:wit w)
      | _ -> ());
      let l, _ = Solver.bounds_of outcome in
      ignore (Incumbent.raise_lb inc l));
  {
    Solver.outcome;
    visited = !visited;
    generated = !generated;
    elapsed = 0.0;
    ordering;
  }

let solve ?(split_blocks = true) ?seed (s : Solver.t) (b : Budget.t) p =
  Budget.start b;
  let g = Solver.primal_of p in
  match if split_blocks then split g else [] with
  | [] | [ _ ] ->
      Obs.Counter.incr c_block_skips;
      s.Solver.run ?seed b p
  | bls ->
      let (combined : Solver.result), secs =
        Clock.time @@ fun () ->
        let bls = Array.of_list bls in
        let nb = Array.length bls in
        Obs.Counter.add c_blocks nb;
        let problems = block_problems p g bls in
        let results = Array.make nb None in
        (* block [i]'s share of the remaining time is cut when it
           starts, so time an earlier block left unspent rolls over *)
        let solve_block i () =
          if not (Budget.cancelled b) then
            let sub = Budget.sub ~stages:(nb - i) b in
            results.(i) <- Some (s.Solver.run ?seed sub (snd problems.(i)))
        in
        Step.run_all b (List.init nb solve_block);
        combine s b p (Graph.n g) bls problems results
      in
      { combined with Solver.elapsed = secs }
