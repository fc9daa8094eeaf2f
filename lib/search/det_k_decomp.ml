module Bitset = Hd_graph.Bitset
module Hypergraph = Hd_hypergraph.Hypergraph
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module Budget = Hd_engine.Budget
module Counter = Hd_obs.Obs.Counter

type t = Ghd.t

let c_subproblems = Counter.make "detk.subproblems"
let c_memo_hits = Counter.make "detk.memo_hits"
let c_separators = Counter.make "detk.separators"
let c_enum_steps = Counter.make "detk.enum_steps"

(* an in-construction decomposition node *)
type node = { chi : Bitset.t; lambda : int list; children : node list }

(* the hypergraph as bitsets, shared by every k: each edge's vertices
   (the hypergraph's own sets), and, built once per run, each vertex's
   edges and the last edge holding it *)
type index = {
  n : int;
  m : int;
  edge_vars : Bitset.t array;
  vertex_edges : Bitset.t array;
  last_edge : int array;
  max_arity : int;
}

let index h =
  let n = Hypergraph.n_vertices h and m = Hypergraph.n_edges h in
  let incident v = Hypergraph.incident h v in
  {
    n;
    m;
    edge_vars = Array.init m (Hypergraph.edge_bits h);
    vertex_edges = Array.init n (fun v -> Bitset.of_list m (incident v));
    last_edge = Array.init n (fun v -> List.fold_left max (-1) (incident v));
    max_arity = Hypergraph.max_edge_size h;
  }

(* the union of [sets.(i)] over the elements [i] of [ids] *)
let union_of sets ids ~capacity =
  let acc = Bitset.create capacity in
  Bitset.iter (fun i -> Bitset.union_into ~src:sets.(i) ~dst:acc) ids;
  acc

let vertices_of_edges ix edges = union_of ix.edge_vars edges ~capacity:ix.n
let edges_at ix vars = union_of ix.vertex_edges vars ~capacity:ix.m
let meets a b = Bitset.inter_cardinal a b > 0

(* connected components of the edge set [comp] where two edges touch
   when they share a vertex outside [separator_vars], listed in
   decreasing order of their smallest edge *)
let components ix comp ~separator_vars =
  let unassigned = Bitset.copy comp in
  let result = ref [] in
  while not (Bitset.is_empty unassigned) do
    let component = Bitset.create ix.m in
    let frontier = ref (Bitset.of_list ix.m [ Bitset.choose unassigned ]) in
    while not (Bitset.is_empty !frontier) do
      Bitset.diff_into ~src:!frontier ~dst:unassigned;
      Bitset.union_into ~src:!frontier ~dst:component;
      let vars = vertices_of_edges ix !frontier in
      Bitset.diff_into ~src:separator_vars ~dst:vars;
      frontier := edges_at ix vars;
      Bitset.inter_into ~src:unassigned ~dst:!frontier
    done;
    result := component :: !result
  done;
  !result

exception Found of node
exception Timeout of int

(* one "hw <= k?" search on a prebuilt index, ticking [tk] once per
   expanded (component, connector) subproblem *)
let decide_on ix tk h ~k =
  if k < 1 then invalid_arg "Det_k_decomp.decide: k >= 1 required";
  if not (Hypergraph.all_vertices_covered h) then
    invalid_arg "Det_k_decomp.decide: every vertex must lie in some hyperedge";
  let check_budget () = if Budget.out_of_budget tk then raise (Timeout 1) in
  (* failed (component, connector) pairs; successes are never
     recomputed because the recursion stops at the first success *)
  let failed : (Bitset.t * Bitset.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec decompose comp connector =
    if Bitset.cardinal comp <= k then
      (* base: one node holding the whole component *)
      let chi = vertices_of_edges ix comp in
      Some { chi; lambda = Bitset.elements comp; children = [] }
    else if Hashtbl.mem failed (comp, connector) then begin
      Counter.incr c_memo_hits;
      None
    end
    else begin
      Counter.incr c_subproblems;
      Budget.tick_generated tk;
      check_budget ();
      let comp_vars = vertices_of_edges ix comp in
      let scope = Bitset.copy comp_vars in
      Bitset.union_into ~src:connector ~dst:scope;
      (* the component's vertices beyond the connector *)
      let inner = Bitset.copy comp_vars in
      Bitset.diff_into ~src:connector ~dst:inner;
      (* candidate separator edges must touch the component or the
         connector; others cannot help *)
      let candidates = edges_at ix scope in
      let touches_comp = edges_at ix comp_vars in
      let try_separator lambda separator_vars =
        Counter.incr c_separators;
        (* descent: unless the component holds nothing beyond the
           connector, some separator edge must reach into it — a
           separator seeing only connector vertices leaves the
           component in one piece, so the progress check below would
           reject it anyway after the (expensive) component split *)
        if not (Bitset.is_empty inner
                || List.exists (fun e -> meets ix.edge_vars.(e) inner) lambda)
        then None
        else begin
          (* chi respects the descendant condition: only vertices the
             subtree can still see *)
          let chi = Bitset.copy separator_vars in
          Bitset.inter_into ~src:scope ~dst:chi;
          (* remaining edges: those of the component with a vertex
             outside this node's bag *)
          let outside = Bitset.copy comp_vars in
          Bitset.diff_into ~src:chi ~dst:outside;
          let remaining = edges_at ix outside in
          Bitset.inter_into ~src:comp ~dst:remaining;
          if Bitset.is_empty remaining then Some { chi; lambda; children = [] }
          else begin
            let parts = components ix remaining ~separator_vars in
            (* progress: every part must be strictly smaller *)
            if List.exists (fun part -> Bitset.equal part comp) parts then None
            else
              let rec solve_children parts acc =
                match parts with
                | [] -> Some { chi; lambda; children = List.rev acc }
                | part :: rest -> (
                    let child_connector = vertices_of_edges ix part in
                    Bitset.inter_into ~src:chi ~dst:child_connector;
                    match decompose part child_connector with
                    | None -> None
                    | Some child -> solve_children rest (child :: acc))
              in
              solve_children parts []
          end
        end
      in
      (* enumerate separators of size <= k over the candidates in
         increasing edge order; attempt as soon as the connector is
         covered.  [vars] holds the vertices of the [chosen] edges and
         [open_] the connector vertices they miss *)
      let rec enumerate start slots chosen vars open_ =
        if Bitset.is_empty open_ then begin
          match try_separator (List.rev chosen) vars with
          | Some node -> raise (Found node)
          | None -> ()
        end;
        (* prune the prefixes that lead to no attempt, because the
           slots left cannot cover the open connector vertices with
           edges from [start] on: no edge covers more than max_arity
           of them, the loop stops past the earliest last edge of an
           open vertex, and the one edge left must hold the first *)
        if slots > 0 && Bitset.cardinal open_ <= slots * ix.max_arity then begin
          let last =
            Bitset.fold (fun v l -> min l ix.last_edge.(v)) open_ max_int
          in
          let allowed =
            if slots = 1 && not (Bitset.is_empty open_) then
              ix.vertex_edges.(Bitset.choose open_)
            else candidates
          in
          for e = start to min last (ix.m - 1) do
            if Bitset.mem allowed e then begin
              Counter.incr c_enum_steps;
              (* at large k the loop visits C(m, k) subsets between
                 recursive calls — check the clock here too *)
              check_budget ();
              (* useless-edge pruning: an edge covering no open
                 connector vertex and disjoint from the component only
                 wastes a slot — its vertices influence neither chi
                 nor the component split, so every separator using it
                 has a sub-separator without it that this enumeration
                 also visits *)
              if Bitset.mem touches_comp e || meets ix.edge_vars.(e) open_
              then begin
                let vars = Bitset.copy vars and open_ = Bitset.copy open_ in
                Bitset.union_into ~src:ix.edge_vars.(e) ~dst:vars;
                Bitset.diff_into ~src:ix.edge_vars.(e) ~dst:open_;
                enumerate (e + 1) (slots - 1) (e :: chosen) vars open_
              end
            end
          done
        end
      in
      match enumerate 0 k [] (Bitset.create ix.n) connector with
      | () ->
          Hashtbl.replace failed (Bitset.copy comp, Bitset.copy connector) ();
          None
      | exception Found node -> Some node
    end
  in
  match decompose (Bitset.full ix.m) (Bitset.create ix.n) with
  | None -> None
  | Some root ->
      (* flatten the node tree into a Ghd.t *)
      let bags = ref [] and parents = ref [] and lambdas = ref [] in
      (* [emit] numbers nodes in preorder from [id], returning the next *)
      let rec emit node parent id =
        bags := node.chi :: !bags;
        parents := parent :: !parents;
        lambdas := Array.of_list node.lambda :: !lambdas;
        let emit_child next child = emit child id next in
        List.fold_left emit_child (id + 1) node.children
      in
      ignore (emit root (-1) 0);
      let rev_array l = Array.of_list (List.rev l) in
      let td = Td.make ~bags:(rev_array !bags) ~parent:(rev_array !parents) in
      Some (Ghd.make ~td ~lambda:(rev_array !lambdas))

let decide ?(within = Budget.create ()) h ~k =
  decide_on (index h) (Budget.ticker within) h ~k

let search ?upper tk h =
  let cap = Option.value upper ~default:(max 1 (Hypergraph.n_edges h)) in
  let ix = index h in
  (* ghw lower-bounds hw, so start the iteration there *)
  let rec go k =
    if k > cap then
      invalid_arg "Det_k_decomp.hypertree_width: upper cap exceeded"
    else
      match decide_on ix tk h ~k with
      | Some hd -> (k, hd)
      | None -> go (k + 1)
      (* every k below this one was refuted: hw >= k is proved *)
      | exception Timeout _ -> raise (Timeout k)
  in
  go (max 1 (Hd_bounds.Lower_bounds.ghw h))

let hypertree_width ?upper ?(within = Budget.create ()) h =
  search ?upper (Budget.ticker within) h

let special_condition_holds h ghd =
  let td = ghd.Ghd.td in
  let k = Td.n_nodes td in
  let n = Hypergraph.n_vertices h in
  (* subtree_vars.(p) = union of chi over p's subtree *)
  let subtree_vars = Array.init k (fun p -> Bitset.copy (Td.bag td p)) in
  (* no parent-before-child order: repeat passes to a fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to k - 1 do
      let parent = td.Td.parent.(p) in
      if parent >= 0 then begin
        let before = Bitset.cardinal subtree_vars.(parent) in
        Bitset.union_into ~src:subtree_vars.(p) ~dst:subtree_vars.(parent);
        if Bitset.cardinal subtree_vars.(parent) <> before then changed := true
      end
    done
  done;
  let rec check p =
    p >= k
    ||
    let lambda_vars = Bitset.create n in
    Array.iter
      (fun e -> Array.iter (Bitset.add lambda_vars) (Hypergraph.edge h e))
      ghd.Ghd.lambda.(p);
    Bitset.inter_into ~src:subtree_vars.(p) ~dst:lambda_vars;
    Bitset.subset lambda_vars (Td.bag td p) && check (p + 1)
  in
  check 0

let valid h hd = Ghd.valid h hd && special_condition_holds h hd
