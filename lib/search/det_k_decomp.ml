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

(* The search keeps every edge and vertex set as a mask: a slice of
   [w] words [a.(o) .. a.(o + w - 1)] of an int array, element [i]
   being bit [i mod bpw] of word [i / bpw].  Edge sets take [we] words
   and vertex sets [wv]; each subproblem writes into buffers of its own
   recursion depth, so the enumeration allocates nothing per step.
   [bpw] is a literal, the bits of a native int on the 64-bit systems
   the library needs, so that [i / bpw] compiles to a multiply rather
   than a division. *)
let bpw = 63
let words_for n = max 1 ((n + bpw - 1) / bpw)
let mem a o i = a.(o + (i / bpw)) land (1 lsl (i mod bpw)) <> 0

let add a o i =
  let j = o + (i / bpw) in
  a.(j) <- a.(j) lor (1 lsl (i mod bpw))

let is_empty a o w =
  let i = ref 0 in
  while !i < w && a.(o + !i) = 0 do
    incr i
  done;
  !i = w

let equal a o b p w =
  let i = ref 0 in
  while !i < w && a.(o + !i) = b.(p + !i) do
    incr i
  done;
  !i = w

let meets a o b p w =
  let i = ref 0 in
  while !i < w && a.(o + !i) land b.(p + !i) = 0 do
    incr i
  done;
  !i < w

let cardinal a o w =
  let c = ref 0 in
  for i = o to o + w - 1 do
    let x = ref a.(i) in
    while !x <> 0 do
      incr c;
      x := !x land (!x - 1)
    done
  done;
  !c

(* [dst] at [d] := [a] at [o] combined with [b] at [p]; loops rather
   than Array.blit and Array.fill, which are C calls, since a mask is
   mostly one word *)
let union a o b p ~dst d w =
  for i = 0 to w - 1 do
    dst.(d + i) <- a.(o + i) lor b.(p + i)
  done

let diff a o b p ~dst d w =
  for i = 0 to w - 1 do
    dst.(d + i) <- a.(o + i) land lnot b.(p + i)
  done

let inter a o b p ~dst d w =
  for i = 0 to w - 1 do
    dst.(d + i) <- a.(o + i) land b.(p + i)
  done

let copy a o ~dst d w =
  for i = 0 to w - 1 do
    dst.(d + i) <- a.(o + i)
  done

let clear a o w =
  for i = o to o + w - 1 do
    a.(i) <- 0
  done

(* the smallest element at or above [i], or -1 *)
let next a o w i =
  let wi = ref (i / bpw) in
  if !wi >= w then -1
  else begin
    let x = ref (a.(o + !wi) land (-1 lsl (i mod bpw))) in
    while !x = 0 && !wi < w - 1 do
      incr wi;
      x := a.(o + !wi)
    done;
    if !x = 0 then -1 else (!wi * bpw) + Bitset.lowest_bit !x
  end

let elements a o w =
  let rec go i = if i < 0 then [] else i :: go (next a o w (i + 1)) in
  go (next a o w 0)

(* the hypergraph as masks, shared by every k: each edge's vertices
   ([wv] words at [e * wv]), each vertex's edges ([we] words at
   [v * we]) and the last edge holding each vertex *)
type index = {
  n : int;
  m : int;
  wv : int;
  we : int;
  edge_vars : int array;
  vertex_edges : int array;
  last_edge : int array;
  max_arity : int;
}

let index h =
  let n = Hypergraph.n_vertices h and m = Hypergraph.n_edges h in
  let wv = words_for n and we = words_for m in
  let edge_vars = Array.make (m * wv) 0 in
  let vertex_edges = Array.make (n * we) 0 in
  for e = 0 to m - 1 do
    Array.iter
      (fun v ->
        add edge_vars (e * wv) v;
        add vertex_edges (v * we) e)
      (Hypergraph.edge h e)
  done;
  let incident v = Hypergraph.incident h v in
  {
    n;
    m;
    wv;
    we;
    edge_vars;
    vertex_edges;
    last_edge = Array.init n (fun v -> List.fold_left max (-1) (incident v));
    max_arity = Hypergraph.max_edge_size h;
  }

(* [dst] at [d] := the union of the [stride]-word masks of [sets] over
   the elements of the [w]-word mask [ids] at [o] *)
let union_of sets ~stride ids o w ~dst d =
  clear dst d stride;
  for wi = 0 to w - 1 do
    let x = ref ids.(o + wi) in
    while !x <> 0 do
      let base = ((wi * bpw) + Bitset.lowest_bit !x) * stride in
      for s = 0 to stride - 1 do
        dst.(d + s) <- dst.(d + s) lor sets.(base + s)
      done;
      x := !x land (!x - 1)
    done
  done

let vertices_of_edges ix a o ~dst d =
  union_of ix.edge_vars ~stride:ix.wv a o ix.we ~dst d

let edges_at ix a o ~dst d = union_of ix.vertex_edges ~stride:ix.we a o ix.wv ~dst d

(* the failure memo, keyed by a subproblem's key words: a lookup
   hashes and compares the frame's own key in place *)
module Memo = Hashtbl.Make (struct
  type t = int array

  let equal a b = equal a 0 b 0 (Array.length a)

  let hash a =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x100000001b3
    done;
    !h lxor (!h lsr 29)
end)

(* the buffers of one recursion depth: the subproblem's key (its
   component at 0, its connector at [we]) and its derived sets, the
   enumeration's per-level separator vertices and open connector
   vertices ([wv] words at [j * wv] for [j] chosen edges), and the
   components a separator splits it into ([we] words each) *)
type frame = {
  key : int array;
  comp_vars : int array;
  scope : int array;
  inner : int array;
  bag : int array;
  candidates : int array;
  touches_comp : int array;
  vars : int array;
  open_ : int array;
  chosen : int array;
  mutable parts : int array;
}

let frame_for ix ~k =
  let v () = Array.make ix.wv 0 and e () = Array.make ix.we 0 in
  {
    key = Array.make (ix.we + ix.wv) 0;
    comp_vars = v ();
    scope = v ();
    inner = v ();
    bag = v ();
    candidates = e ();
    touches_comp = e ();
    vars = Array.make ((k + 1) * ix.wv) 0;
    open_ = Array.make ((k + 1) * ix.wv) 0;
    chosen = Array.make k 0;
    parts = Array.make (4 * ix.we) 0;
  }

(* some of the [j] chosen edges meets the component's vertices beyond
   the connector *)
let reaches_inner ix f j =
  let i = ref 0 in
  while !i < j && not (meets ix.edge_vars (f.chosen.(!i) * ix.wv) f.inner 0 ix.wv) do
    incr i
  done;
  !i < j

(* some of the first [count] parts is the whole component *)
let keeps_component ix f count =
  let p = ref 0 in
  while !p < count && not (equal f.parts (!p * ix.we) f.key 0 ix.we) do
    incr p
  done;
  !p < count

let node ix f j children =
  {
    chi = Bitset.of_list ix.n (elements f.bag 0 ix.wv);
    lambda = Array.to_list (Array.sub f.chosen 0 j);
    children;
  }

exception Found of node
exception Timeout of int

(* one "hw <= k?" search on a prebuilt index, ticking [tk] once per
   expanded (component, connector) subproblem *)
let decide_on ix tk h ~k =
  if k < 1 then invalid_arg "Det_k_decomp.decide: k >= 1 required";
  if not (Hypergraph.all_vertices_covered h) then
    invalid_arg "Det_k_decomp.decide: every vertex must lie in some hyperedge";
  let check_budget () = if Budget.out_of_budget tk then raise (Timeout 1) in
  let we = ix.we and wv = ix.wv in
  (* failed (component, connector) pairs; successes are never
     recomputed because the recursion stops at the first success *)
  let failed = Memo.create 64 in
  let frames = ref [||] in
  let frame d =
    if d = Array.length !frames then
      frames := Array.append !frames [| frame_for ix ~k |];
    !frames.(d)
  in
  (* scratch of the component split, dead across recursive calls *)
  let outside = Array.make wv 0 and remaining = Array.make we 0 in
  let unassigned = Array.make we 0 and frontier = Array.make we 0 in
  let reach = Array.make wv 0 in
  (* connected components of [remaining] where two edges touch when
     they share a vertex outside the separator's vertices [sep] at
     [so], written to [f.parts] in increasing order of their smallest
     edge; returns their number *)
  let components f sep so =
    copy remaining 0 ~dst:unassigned 0 we;
    let count = ref 0 in
    while not (is_empty unassigned 0 we) do
      let po = !count * we in
      if po + we > Array.length f.parts then begin
        let bigger = Array.make (2 * Array.length f.parts) 0 in
        Array.blit f.parts 0 bigger 0 po;
        f.parts <- bigger
      end;
      clear f.parts po we;
      clear frontier 0 we;
      add frontier 0 (next unassigned 0 we 0);
      while not (is_empty frontier 0 we) do
        diff unassigned 0 frontier 0 ~dst:unassigned 0 we;
        union f.parts po frontier 0 ~dst:f.parts po we;
        vertices_of_edges ix frontier 0 ~dst:reach 0;
        diff reach 0 sep so ~dst:reach 0 wv;
        edges_at ix reach 0 ~dst:frontier 0;
        inter frontier 0 unassigned 0 ~dst:frontier 0 we
      done;
      incr count
    done;
    !count
  in
  let rec decompose d =
    let f = frame d in
    if cardinal f.key 0 we <= k then begin
      (* base: one node holding the whole component *)
      vertices_of_edges ix f.key 0 ~dst:f.comp_vars 0;
      Some
        {
          chi = Bitset.of_list ix.n (elements f.comp_vars 0 wv);
          lambda = elements f.key 0 we;
          children = [];
        }
    end
    else if Memo.mem failed f.key then begin
      Counter.incr c_memo_hits;
      None
    end
    else begin
      Counter.incr c_subproblems;
      Budget.tick_generated tk;
      check_budget ();
      vertices_of_edges ix f.key 0 ~dst:f.comp_vars 0;
      union f.comp_vars 0 f.key we ~dst:f.scope 0 wv;
      (* the component's vertices beyond the connector *)
      diff f.comp_vars 0 f.key we ~dst:f.inner 0 wv;
      (* candidate separator edges must touch the component or the
         connector; others cannot help *)
      edges_at ix f.scope 0 ~dst:f.candidates 0;
      edges_at ix f.comp_vars 0 ~dst:f.touches_comp 0;
      clear f.vars 0 wv;
      copy f.key we ~dst:f.open_ 0 wv;
      match enumerate d f 0 0 with
      | () ->
          Memo.replace failed (Array.copy f.key) ();
          None
      | exception Found node -> Some node
    end
  (* the separator of the [j] edges [f.chosen.(0 .. j-1)], whose
     vertices are level [j] of [f.vars] *)
  and try_separator d f j =
    Counter.incr c_separators;
    (* descent: unless the component holds nothing beyond the
       connector, some separator edge must reach into it — a separator
       seeing only connector vertices leaves the component in one
       piece, so the progress check below would reject it anyway after
       the (expensive) component split *)
    if not (is_empty f.inner 0 wv || reaches_inner ix f j) then None
    else begin
      (* chi respects the descendant condition: only vertices the
         subtree can still see *)
      inter f.vars (j * wv) f.scope 0 ~dst:f.bag 0 wv;
      (* remaining edges: those of the component with a vertex outside
         this node's bag *)
      diff f.comp_vars 0 f.bag 0 ~dst:outside 0 wv;
      edges_at ix outside 0 ~dst:remaining 0;
      inter remaining 0 f.key 0 ~dst:remaining 0 we;
      if is_empty remaining 0 we then Some (node ix f j [])
      else begin
        let count = components f f.vars (j * wv) in
        (* progress: every part must be strictly smaller *)
        if keeps_component ix f count then None
        else
          (* solve the parts from the largest smallest edge down,
             stopping at the first that fails *)
          let child = frame (d + 1) and p = ref (count - 1) and solved = ref [] in
          while
            !p >= 0
            &&
            (copy f.parts (!p * we) ~dst:child.key 0 we;
             vertices_of_edges ix f.parts (!p * we) ~dst:child.key we;
             inter child.key we f.bag 0 ~dst:child.key we wv;
             match decompose (d + 1) with
             | None -> false
             | Some child_node ->
                 solved := child_node :: !solved;
                 true)
          do
            decr p
          done;
          if !p >= 0 then None else Some (node ix f j (List.rev !solved))
      end
    end
  (* enumerate separators of size <= k over the candidates in
     increasing edge order; attempt as soon as the connector is
     covered.  Level [j] holds the vertices of the [j] chosen edges
     and the connector vertices they miss *)
  and enumerate d f start j =
    let o = j * wv in
    if is_empty f.open_ o wv then begin
      match try_separator d f j with
      | Some node -> raise (Found node)
      | None -> ()
    end;
    (* prune the prefixes that lead to no attempt, because the slots
       left cannot cover the open connector vertices with edges from
       [start] on: no edge covers more than max_arity of them, the
       loop stops past the earliest last edge of an open vertex, and
       the one edge left must hold the first *)
    let slots = k - j in
    if slots > 0 && cardinal f.open_ o wv <= slots * ix.max_arity then begin
      let last = ref (ix.m - 1) in
      let v = ref (next f.open_ o wv 0) in
      let first = !v in
      while !v >= 0 do
        last := min !last ix.last_edge.(!v);
        v := next f.open_ o wv (!v + 1)
      done;
      let single = slots = 1 && first >= 0 in
      let allowed = if single then ix.vertex_edges else f.candidates in
      let ao = if single then first * we else 0 in
      let e = ref (next allowed ao we start) in
      while !e >= 0 && !e <= !last do
        let edge = !e in
        Counter.incr c_enum_steps;
        (* at large k the loop visits C(m, k) subsets between recursive
           calls — check the clock here too *)
        check_budget ();
        (* useless-edge pruning: an edge covering no open connector
           vertex and disjoint from the component only wastes a slot —
           its vertices influence neither chi nor the component split,
           so every separator using it has a sub-separator without it
           that this enumeration also visits *)
        if mem f.touches_comp 0 edge || meets ix.edge_vars (edge * wv) f.open_ o wv
        then begin
          let o' = o + wv in
          union f.vars o ix.edge_vars (edge * wv) ~dst:f.vars o' wv;
          diff f.open_ o ix.edge_vars (edge * wv) ~dst:f.open_ o' wv;
          f.chosen.(j) <- edge;
          enumerate d f (edge + 1) (j + 1)
        end;
        e := next allowed ao we (edge + 1)
      done
    end
  in
  let root = frame 0 in
  for e = 0 to ix.m - 1 do
    add root.key 0 e
  done;
  match decompose 0 with
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
