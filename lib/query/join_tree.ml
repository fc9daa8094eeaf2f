module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module Bitset = Hd_graph.Bitset
module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Obs = Hd_obs.Obs

(* Observability: semijoin passes and the enumeration's tuple-producing
   work.  After full reduction the enumeration is backtrack-free, so
   query.enum_dead_ends stays 0 -- the test suite asserts this. *)
let c_reduce_semijoins = Obs.Counter.make "query.reduce_semijoins"
let c_enum_rows = Obs.Counter.make "query.enum_rows"
let c_enum_dead_ends = Obs.Counter.make "query.enum_dead_ends"

(* bags materialised through a cross product: no atom path joins the
   bag's atoms *)
let c_bag_products = Obs.Counter.make "query.bag_products"

type t = { rels : Qrelation.t array; parent : int array }

(* children-before-parents order *)
let bottom_up_order parent =
  let m = Array.length parent in
  let depth = Array.make m (-1) in
  let rec depth_of i =
    if depth.(i) >= 0 then depth.(i)
    else begin
      let d = if parent.(i) = -1 then 0 else depth_of parent.(i) + 1 in
      depth.(i) <- d;
      d
    end
  in
  let order = Array.init m Fun.id in
  for i = 0 to m - 1 do
    ignore (depth_of i)
  done;
  Array.sort (fun a b -> compare depth.(b) depth.(a)) order;
  order

let top_down_order parent =
  let o = bottom_up_order parent in
  Array.init (Array.length o) (fun k -> o.(Array.length o - 1 - k))

(* attributes of [sa] also in [sb], in [sa] order *)
let shared_vars sa sb =
  Array.of_list
    (List.filter (fun v -> Array.exists (( = ) v) sb) (Array.to_list sa))

let is_join_tree t =
  let m = Array.length t.rels in
  let vars =
    Array.fold_left
      (fun acc r -> Array.fold_left max acc (Qrelation.scope r))
      (-1) t.rels
  in
  let has v i = Array.exists (( = ) v) (Qrelation.scope t.rels.(i)) in
  let nodes = List.init m Fun.id in
  let rec check v =
    v > vars
    ||
    let occurrences = List.filter (has v) nodes in
    let internal_edges =
      List.filter
        (fun i -> t.parent.(i) <> -1 && has v i && has v t.parent.(i))
        nodes
    in
    (occurrences = []
    || List.length internal_edges = List.length occurrences - 1)
    && check (v + 1)
  in
  check 0

(* ------------------------------------------------------------------ *)
(* Materialisation                                                     *)
(* ------------------------------------------------------------------ *)

let bag ?par rels ~scope =
  match rels with
  | [] -> Qrelation.make ~scope:[||] [ [||] ]
  | _ -> Colexec.join_project ?par rels ~scope

(* Bag plans.  Atoms are the hyperedges of the query hypergraph, the
   vertices of its dual graph [dual]: two atoms are adjacent when they
   share a variable. *)

(* the inner atoms of a shortest atom path from component [comp] to
   another atom of [s], by breadth-first search over all atoms *)
let connector dual comp s =
  let from = Array.make (Graph.n dual) (-2) in
  List.iter (fun a -> from.(a) <- -1) comp;
  let rec path a acc =
    if from.(a) = -1 then acc else path from.(a) (a :: acc)
  in
  let queue = Queue.of_seq (List.to_seq comp) in
  let rec bfs () =
    Option.bind (Queue.take_opt queue) (fun a ->
        let next =
          List.filter (fun b -> from.(b) = -2) (Graph.neighbors dual a)
        in
        if List.exists (Bitset.mem s) next then Some (path a [])
        else begin
          List.iter
            (fun b ->
              from.(b) <- a;
              Queue.add b queue)
            next;
          bfs ()
        end)
  in
  bfs ()

(* join order: the smallest atom, then always the smallest atom sharing
   a variable with those joined so far (the smallest remaining one when
   none does) *)
let connected_order atoms dual s =
  let size a = Qrelation.cardinality atoms.(a) in
  let smallest l =
    List.fold_left (fun b a -> if size a < size b then a else b) (List.hd l) l
  in
  let rec go joined = function
    | [] -> List.rev joined
    | rest ->
        let near =
          List.filter
            (fun a -> List.exists (Graph.mem_edge dual a) joined)
            rest
        in
        let a = smallest (if near = [] then rest else near) in
        go (a :: joined) (List.filter (( <> ) a) rest)
  in
  go [] s

(* the atoms node [chi]/[lambda] joins, in join order: S = lambda plus
   every atom inside chi, joined up by connector paths, less the atoms
   reaching outside chi (largest first) that connectedness does not
   need and that leave a cover of chi of at most |lambda| atoms in S.
   That cover starts as lambda; one of its atoms leaves it only for a
   remaining atom holding all of its chi-variables.  So the bag is
   within the chi-projection of a join of at most |lambda| atoms *)
let bag_plan atoms dual ~chi ~lambda =
  let scope a = Qrelation.scope atoms.(a) in
  let inside a = Array.for_all (Bitset.mem chi) (scope a) in
  let s = Bitset.create (Graph.n dual) in
  Array.iteri (fun a _ -> if inside a then Bitset.add s a) atoms;
  Array.iter (Bitset.add s) lambda;
  let n_comps () = List.length (Graph.components ~within:s dual) in
  let rec connect added =
    match Graph.components ~within:s dual with
    | _ :: _ :: _ as comps -> (
        match List.find_map (fun c -> connector dual c s) comps with
        | Some path ->
            List.iter (Bitset.add s) path;
            connect (path @ added)
        | None -> added)
    | _ -> added
  in
  let connectors = connect [] in
  let n = n_comps () in
  let cover = Bitset.create (Graph.n dual) in
  Array.iter (Bitset.add cover) lambda;
  (* a remaining atom of S standing in for cover atom [a] *)
  let substitute a =
    let needed = List.filter (Bitset.mem chi) (Array.to_list (scope a)) in
    List.find_opt
      (fun b -> List.for_all (fun v -> Array.mem v (scope b)) needed)
      (Bitset.elements s)
  in
  let size a = Qrelation.cardinality atoms.(a) in
  connectors @ List.filter (fun a -> not (inside a)) (Array.to_list lambda)
  |> List.stable_sort (fun a b -> compare (size b) (size a))
  |> List.iter (fun a ->
         Bitset.remove s a;
         let droppable =
           n_comps () <= n
           && ((not (Bitset.mem cover a))
              ||
              match substitute a with
              | Some b ->
                  Bitset.remove cover a;
                  Bitset.add cover b;
                  true
              | None -> false)
         in
         if not droppable then Bitset.add s a);
  if n > 1 then Obs.Counter.incr c_bag_products;
  connected_order atoms dual (Bitset.elements s)

let of_ghd ?par h ghd atoms =
  let td = ghd.Ghd.td in
  let dual = Hypergraph.dual h in
  let rels =
    Array.init (Td.n_nodes td) (fun p ->
        let chi = Td.bag td p in
        let plan = bag_plan atoms dual ~chi ~lambda:ghd.Ghd.lambda.(p) in
        bag ?par
          (List.map (Array.get atoms) plan)
          ~scope:(Array.of_list (Bitset.elements chi)))
  in
  { rels; parent = td.Td.parent }

(* ------------------------------------------------------------------ *)
(* Semijoin passes over selection vectors                              *)
(* ------------------------------------------------------------------ *)

type state = {
  tree : t;
  sels : Colexec.sel array;
  mutable semijoins : int;
}

let start tree =
  { tree; sels = Array.map Colexec.all_rows tree.rels; semijoins = 0 }

let semijoins st = st.semijoins
let surviving st = Array.fold_left (fun acc s -> acc + Array.length s) 0 st.sels

(* narrow node [i]'s selection to the rows matching node [c]'s *)
let semijoin ?par st ~probe:i ~build:c =
  let r = st.tree.rels.(i) and rc = st.tree.rels.(c) in
  let shared = shared_vars (Qrelation.scope r) (Qrelation.scope rc) in
  st.sels.(i) <-
    Colexec.semijoin ?par
      ~probe:(r, st.sels.(i), Qrelation.positions r shared)
      ~build:(rc, st.sels.(c), Qrelation.positions rc shared)
      ();
  st.semijoins <- st.semijoins + 1;
  Obs.Counter.incr c_reduce_semijoins

(* false as soon as any selection empties *)
let reduce_bottom_up ?par st =
  let parent = st.tree.parent in
  let order = bottom_up_order parent in
  let rec go k =
    k = Array.length order
    ||
    let i = order.(k) in
    let p = parent.(i) in
    (p = -1
    || begin
         semijoin ?par st ~probe:p ~build:i;
         Array.length st.sels.(p) > 0
       end)
    && go (k + 1)
  in
  Array.for_all (fun sel -> Array.length sel > 0) st.sels && go 0

let reduce_top_down ?par st =
  let parent = st.tree.parent in
  Array.iter
    (fun i -> if parent.(i) <> -1 then semijoin ?par st ~probe:i ~build:parent.(i))
    (top_down_order parent)

let reduce ?par ?(full = true) st =
  reduce_bottom_up ?par st
  && begin
       if full then reduce_top_down ?par st;
       true
     end

(* ------------------------------------------------------------------ *)
(* Counting and enumeration                                            *)
(* ------------------------------------------------------------------ *)

(* weighted counting over selection slots: weights.(i).(s) counts the
   full assignments below node i extending selection slot s *)
let count st =
  let t = st.tree in
  let m = Array.length t.rels in
  let children = Array.make m [] in
  Array.iteri
    (fun i p -> if p <> -1 then children.(p) <- i :: children.(p))
    t.parent;
  let weights = Array.make m [||] in
  Array.iter
    (fun i ->
      let r = t.rels.(i) in
      let sel = st.sels.(i) in
      let w = Array.make (Array.length sel) 1 in
      List.iter
        (fun c ->
          let rc = t.rels.(c) in
          let shared = shared_vars (Qrelation.scope r) (Qrelation.scope rc) in
          let pr = Qrelation.positions r shared in
          let pc = Qrelation.positions rc shared in
          let ks =
            Colexec.Keysum.build rc ~pos:pc ~sel:st.sels.(c)
              ~weights:weights.(c)
          in
          let k = Array.length shared in
          let key = Array.make k 0 in
          for s = 0 to Array.length sel - 1 do
            let row = sel.(s) in
            for x = 0 to k - 1 do
              key.(x) <- Qrelation.get r row pr.(x)
            done;
            w.(s) <- w.(s) * Colexec.Keysum.find ks key
          done)
        children.(i);
      weights.(i) <- w)
    (bottom_up_order t.parent);
  let total = ref 1 in
  Array.iteri
    (fun i p ->
      if p = -1 then total := !total * Array.fold_left ( + ) 0 weights.(i))
    t.parent;
  !total

(* backtrack-free enumeration over selection vectors: per node a
   chained int-hash Index of the surviving rows on the parent-shared
   columns, probed with a reused scratch key; fresh variables are read
   straight out of the base columns (late materialisation) *)
let iter st ~n_vars on_solution =
  Obs.with_span "query.enumerate" @@ fun () ->
  let t = st.tree in
  let order = top_down_order t.parent in
  let m = Array.length order in
  let info =
    Array.map
      (fun i ->
        let r = t.rels.(i) in
        let sc = Qrelation.scope r in
        let parent_scope =
          if t.parent.(i) = -1 then [||]
          else Qrelation.scope t.rels.(t.parent.(i))
        in
        let shared = shared_vars sc parent_scope in
        let index =
          Colexec.Index.build r
            ~pos:(Qrelation.positions r shared)
            ~sel:st.sels.(i)
        in
        let fresh =
          Array.of_list
            (List.filter_map
               (fun j ->
                 let v = sc.(j) in
                 if Array.exists (( = ) v) shared then None
                 else Some (Qrelation.col r j, v))
               (List.init (Array.length sc) Fun.id))
        in
        (shared, index, fresh, Array.make (Array.length shared) 0))
      order
  in
  let env = Array.make n_vars min_int in
  let rec go k =
    if k = m then on_solution env
    else begin
      let shared, index, fresh, key = info.(k) in
      for x = 0 to Array.length shared - 1 do
        key.(x) <- env.(shared.(x))
      done;
      let any = ref false in
      Colexec.Index.iter index key (fun rid ->
          any := true;
          Obs.Counter.incr c_enum_rows;
          Array.iter (fun (colv, v) -> env.(v) <- colv.(rid)) fresh;
          go (k + 1));
      if not !any then Obs.Counter.incr c_enum_dead_ends
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Acyclic solving                                                     *)
(* ------------------------------------------------------------------ *)

exception Found of int array

(* after the bottom-up pass every selected row has support below it, so
   the first top-down descent never dead-ends: by connectedness a
   node's already-fixed variables are exactly those it shares with its
   parent *)
let solve ?par t ~n_vars =
  let st = start t in
  if not (reduce ?par ~full:false st) then None
  else
    try
      iter st ~n_vars (fun env -> raise_notrace (Found (Array.copy env)));
      None
    with Found a -> Some a

let count_solutions ?par t =
  let st = start t in
  if reduce ?par ~full:false st then count st else 0
