module Bitset = Hd_graph.Bitset
module Hypergraph = Hd_hypergraph.Hypergraph
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd

type t = Ghd.t

(* an in-construction decomposition node *)
type node = { chi : Bitset.t; lambda : int list; children : node list }

let vertices_of_edges h edges ~n =
  let vars = Bitset.create n in
  Bitset.iter (fun e -> Array.iter (Bitset.add vars) (Hypergraph.edge h e)) edges;
  vars

(* connected components of the edge set [comp] where two edges touch
   when they share a vertex outside [separator_vars] *)
let components h comp ~separator_vars ~n ~m =
  let unassigned = Bitset.copy comp in
  let result = ref [] in
  while not (Bitset.is_empty unassigned) do
    let seed = Bitset.choose unassigned in
    let component = Bitset.create m in
    let frontier_vertices = Bitset.create n in
    let queue = Queue.create () in
    Queue.push seed queue;
    Bitset.remove unassigned seed;
    while not (Queue.is_empty queue) do
      let e = Queue.pop queue in
      Bitset.add component e;
      Array.iter
        (fun v ->
          if (not (Bitset.mem separator_vars v)) && not (Bitset.mem frontier_vertices v)
          then begin
            Bitset.add frontier_vertices v;
            List.iter
              (fun e' ->
                if Bitset.mem unassigned e' then begin
                  Bitset.remove unassigned e';
                  Queue.push e' queue
                end)
              (Hypergraph.incident h v)
          end)
        (Hypergraph.edge h e)
    done;
    result := component :: !result
  done;
  !result

exception Found of node

exception Timeout

let decide ?within h ~k =
  if k < 1 then invalid_arg "Det_k_decomp.decide: k >= 1 required";
  let ticker = Option.map Hd_engine.Budget.ticker within in
  let check_deadline () =
    match ticker with
    | Some tk when Hd_engine.Budget.out_of_budget tk -> raise Timeout
    | _ -> ()
  in
  if not (Hypergraph.all_vertices_covered h) then
    invalid_arg "Det_k_decomp.decide: every vertex must lie in some hyperedge";
  let n = Hypergraph.n_vertices h in
  let m = Hypergraph.n_edges h in
  let all_edges = Bitset.full m in
  (* failed (component, connector) pairs; successes are never
     recomputed because the recursion stops at the first success *)
  let failed : (Bitset.t * Bitset.t, unit) Hashtbl.t = Hashtbl.create 1024 in
  let rec decompose comp connector =
    if Bitset.cardinal comp <= k then begin
      (* base: one node holding the whole component *)
      let chi = vertices_of_edges h comp ~n in
      Some { chi; lambda = Bitset.elements comp; children = [] }
    end
    else if Hashtbl.mem failed (comp, connector) then None
    else begin
      check_deadline ();
      let comp_vars = vertices_of_edges h comp ~n in
      (* candidate separator edges must touch the component or the
         connector; others cannot help *)
      let touches e =
        Array.exists
          (fun v -> Bitset.mem comp_vars v || Bitset.mem connector v)
          (Hypergraph.edge h e)
      in
      let candidates =
        List.filter touches (List.init m (fun e -> e))
      in
      let candidate_array = Array.of_list candidates in
      let try_separator lambda =
        let separator = Bitset.create m in
        List.iter (Bitset.add separator) lambda;
        let separator_vars = vertices_of_edges h separator ~n in
        (* descent: unless the component holds nothing beyond the
           connector, some separator edge must reach into it — a
           separator seeing only connector vertices leaves the
           component in one piece, so the progress check below would
           reject it anyway after the (expensive) component split *)
        let descends =
          Bitset.subset comp_vars connector
          || List.exists
               (fun e ->
                 Array.exists
                   (fun v ->
                     Bitset.mem comp_vars v && not (Bitset.mem connector v))
                   (Hypergraph.edge h e))
               lambda
        in
        if not (Bitset.subset connector separator_vars) || not descends then
          None
        else begin
          (* chi respects the descendant condition: only vertices the
             subtree can still see *)
          let chi = Bitset.copy separator_vars in
          let scope = Bitset.copy comp_vars in
          Bitset.union_into ~src:connector ~dst:scope;
          Bitset.inter_into ~src:scope ~dst:chi;
          (* remaining edges: those of the component not absorbed by
             this node's bag *)
          let remaining = Bitset.copy comp in
          Bitset.iter
            (fun e ->
              if Array.for_all (Bitset.mem chi) (Hypergraph.edge h e) then
                Bitset.remove remaining e)
            comp;
          if Bitset.is_empty remaining then
            Some { chi; lambda; children = [] }
          else begin
            let parts = components h remaining ~separator_vars ~n ~m in
            (* progress: every part must be strictly smaller *)
            if List.exists (fun part -> Bitset.equal part comp) parts then None
            else
              let rec solve_children parts acc =
                match parts with
                | [] -> Some (List.rev acc)
                | part :: rest -> (
                    let part_vars = vertices_of_edges h part ~n in
                    let child_connector = Bitset.copy chi in
                    Bitset.inter_into ~src:part_vars ~dst:child_connector;
                    match decompose part child_connector with
                    | None -> None
                    | Some child -> solve_children rest (child :: acc))
              in
              match solve_children parts [] with
              | None -> None
              | Some children -> Some { chi; lambda; children }
          end
        end
      in
      (* enumerate separators of size <= k over the candidates,
         index-increasing; attempt as soon as the connector is covered *)
      let covered = Bitset.create n in
      let result =
        try
          let rec enumerate start chosen slots covered_connector =
            if covered_connector then begin
              match try_separator (List.rev chosen) with
              | Some node -> raise (Found node)
              | None -> ()
            end;
            if slots > 0 then
              for i = start to Array.length candidate_array - 1 do
                (* at large k the loop visits C(m, k) subsets between
                   recursive calls — check the clock here too, not just
                   at decompose entries *)
                check_deadline ();
                let e = candidate_array.(i) in
                (* useless-edge pruning: an edge covering no
                   still-uncovered connector vertex and disjoint from
                   the component only wastes a slot — its vertices
                   influence neither chi nor the component split, so
                   every separator using it has a sub-separator
                   without it that this enumeration also visits *)
                let useful =
                  Array.exists
                    (fun v ->
                      Bitset.mem comp_vars v
                      || (Bitset.mem connector v && not (Bitset.mem covered v)))
                    (Hypergraph.edge h e)
                in
                if useful then begin
                  let added = ref [] in
                  Array.iter
                    (fun v ->
                      if Bitset.mem connector v && not (Bitset.mem covered v)
                      then begin
                        Bitset.add covered v;
                        added := v :: !added
                      end)
                    (Hypergraph.edge h e);
                  enumerate (i + 1) (e :: chosen) (slots - 1)
                    (Bitset.subset connector covered);
                  List.iter (Bitset.remove covered) !added
                end
              done
          in
          enumerate 0 [] k (Bitset.is_empty connector);
          None
        with Found node -> Some node
      in
      if result = None then
        Hashtbl.replace failed (Bitset.copy comp, Bitset.copy connector) ();
      result
    end
  in
  match decompose all_edges (Bitset.create n) with
  | None -> None
  | Some root ->
      (* flatten the node tree into a Ghd.t *)
      let bags = ref [] and parents = ref [] and lambdas = ref [] in
      let counter = ref 0 in
      let rec emit node parent =
        let id = !counter in
        incr counter;
        bags := node.chi :: !bags;
        parents := parent :: !parents;
        lambdas := Array.of_list node.lambda :: !lambdas;
        List.iter (fun child -> emit child id) node.children
      in
      emit root (-1);
      let td =
        Td.make
          ~bags:(Array.of_list (List.rev !bags))
          ~parent:(Array.of_list (List.rev !parents))
      in
      Some (Ghd.make ~td ~lambda:(Array.of_list (List.rev !lambdas)))

let hypertree_width ?upper ?within h =
  let cap = Option.value upper ~default:(max 1 (Hypergraph.n_edges h)) in
  (* ghw lower-bounds hw, so start the iteration there *)
  let start = max 1 (Hd_bounds.Lower_bounds.ghw h) in
  let rec go k =
    if k > cap then
      invalid_arg "Det_k_decomp.hypertree_width: upper cap exceeded"
    else
      match decide ?within h ~k with
      | Some hd -> (k, hd)
      | None -> go (k + 1)
  in
  go start

let descendant_condition_holds h ghd =
  let td = ghd.Ghd.td in
  let k = Td.n_nodes td in
  let n = Hypergraph.n_vertices h in
  (* subtree_vars.(p) = union of chi over p's subtree *)
  let subtree_vars = Array.init k (fun p -> Bitset.copy (Td.bag td p)) in
  (* children have larger... no ordering guarantee: iterate to fixpoint
     bottom-up via repeated passes (trees are small) *)
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

(* the literature's other name for condition 4 *)
let special_condition_holds = descendant_condition_holds

let valid h hd = Ghd.valid h hd && descendant_condition_holds h hd
