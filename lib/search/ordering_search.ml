module Graph = Hd_graph.Graph
module Bitset = Hd_graph.Bitset
module Elim_graph = Hd_graph.Elim_graph
module Incumbent = Hd_core.Incumbent
module Budget = Hd_engine.Budget
module Obs = Hd_obs.Obs

type 'c outcome = Exact of 'c | Bounds of { lb : 'c; ub : 'c }

type 'c result = {
  outcome : 'c outcome;
  visited : int;
  generated : int;
  elapsed : float;
  ordering : int array option;
}

(* sigma's back is eliminated first: live vertices fill the front
   (eliminated last, in any order), then the path, most recent first,
   puts the first elimination at the very back *)
let ordering ~n eg rpath =
  let sigma = Array.make n (-1) in
  let i = ref 0 in
  let put v =
    sigma.(!i) <- v;
    incr i
  in
  Elim_graph.iter_alive put eg;
  List.iter put rpath;
  sigma

exception Out_of_budget
exception Closed

module Make (C : Bag_cost.S) = struct
  type start = {
    problem : C.problem;
    ticker : Budget.ticker;
    inc : Incumbent.t;
    rng : Random.State.t;
    ub : int array * C.t;
    lb : C.t;
  }

  type searcher = {
    n : int;
    ticker : Budget.ticker;
    inc : Incumbent.t;
    oracle : C.oracle;
    eg : Elim_graph.t;
    mutable at : int list;  (* the path [eg] is at, oldest first *)
    all : Bitset.t;  (* every vertex *)
    live : Bitset.t;  (* scratch: a popped state's live set *)
    mutable best : C.t;  (* the best cost this searcher witnessed *)
    mutable best_sigma : int array;
    mutable lb : C.t;  (* the best lower bound this searcher proved *)
  }

  let searcher st =
    let g = C.graph st.problem in
    let best_sigma, best = st.ub in
    {
      n = Graph.n g;
      ticker = st.ticker;
      inc = st.inc;
      oracle = C.oracle st.problem st.rng;
      eg = Elim_graph.of_graph g;
      at = [];
      all = Bitset.full (Graph.n g);
      live = Bitset.create (Graph.n g);
      best;
      best_sigma;
      lb = st.lb;
    }

  (* The upper bound prunes against both the local exact best and the
     shared incumbent's, which any racer may have lowered.  The shared
     bound is a ceiling, so for fractional costs it only matters once
     it falls below the local best.  The [_of] forms serve the prologue,
     which settles a closed incumbent before building a searcher. *)
  let ub_of inc best =
    let shared = C.of_int (Incumbent.ub inc) in
    if C.compare shared best < 0 then shared else best

  let closed_of inc ~best ~lb =
    let lb =
      if C.integral then C.max lb (C.of_int (Incumbent.lb inc)) else lb
    in
    C.compare lb (ub_of inc best) >= 0

  (* an ordering realising [ub_of inc best] *)
  let witness_of inc ~best ~sigma =
    match Incumbent.witness inc with
    | Some w when C.compare (C.of_int (Incumbent.ub inc)) best <= 0 -> w
    | _ -> sigma

  let ub s = ub_of s.inc s.best
  let below s c = C.compare c (ub s) < 0
  let closed s = closed_of s.inc ~best:s.best ~lb:s.lb
  let witness s = witness_of s.inc ~best:s.best ~sigma:s.best_sigma

  (* PR 1: a completion of cost [c] found from the current state is an
     upper bound; [sigma] builds its ordering only when it is taken *)
  let offer s c sigma =
    if below s c then begin
      let sigma = sigma () in
      s.best <- c;
      s.best_sigma <- sigma;
      ignore (Incumbent.offer_ub s.inc ~witness:sigma (C.ceil c));
      Obs.Counter.incr Search_util.c_pr1;
      Obs.Counter.incr Search_util.c_ub_improved
    end

  (* only for global lower bounds (A* frontier f-values) *)
  let raise_lb s c =
    if C.compare c s.lb > 0 then begin
      s.lb <- c;
      ignore (Incumbent.raise_lb s.inc (C.ceil c));
      Obs.Counter.incr Search_util.c_lb_improved
    end

  let exhausted s =
    let w = ub s in
    ignore (Incumbent.raise_lb s.inc (C.ceil w));
    Exact w

  let bounds s =
    let ub = ub s in
    Bounds { lb = (if C.compare s.lb ub < 0 then s.lb else ub); ub }

  let minor_lb s =
    if Elim_graph.n_alive s.eg <= 1 then C.zero else C.minor_lb s.oracle s.eg

  (* The completion cost of the current state, past a path of cost [g].
     A floor above [g] and at or above the upper bound decides what the
     exact cost would: PR1 ignores both and the state branches on both.
     Then [C.live] is skipped (search.live_lb_skips).  The [g] test
     matters once a racer has lowered the shared bound to [g] or below
     after the state was popped. *)
  let completion s ~g =
    let floor = C.live_lb s.oracle s.eg in
    if C.compare floor g > 0 && not (below s floor) then begin
      Obs.Counter.incr Search_util.c_live_lb_skips;
      floor
    end
    else C.live s.oracle s.eg

  (* The vertices to branch on at the current state, and whether they
     come from a reduction rule.  [lb] bounds the width from below;
     [reduced] says the current state was itself reached by a
     reduction, which exempts its children from PR2; [last] is the
     vertex eliminated into it (-1 at the root). *)
  let children ?(use_pr2 = true) ?(use_reductions = true) s ~lb ~reduced ~last =
    let reducible =
      if not use_reductions then None
      else
        Elim_graph.find_reducible s.eg
          ~lb:(if C.size_only then C.ceil lb else -1)
    in
    match reducible with
    | Some w ->
        Obs.Counter.incr Search_util.c_reductions;
        ([ w ], true)
    | None ->
        let keep u =
          (not use_pr2) || reduced || last < 0
          || not
               (Search_util.prune_child ~adjacent_case:C.size_only s.eg ~last
                  ~candidate:u)
        in
        ( List.rev
            (Elim_graph.fold_alive
               (fun u acc -> if keep u then u :: acc else acc)
               s.eg []),
          false )

  (* The prologue of every search: prepare the input, settle trivial
     problems, publish the initial bounds and settle a problem they
     close; otherwise [body] searches from them. *)
  let run ?(within = Budget.create ()) ~seed input body =
    let p = C.prepare input in
    let ticker = Budget.ticker within in
    let finish outcome ordering =
      {
        outcome;
        visited = Budget.visited ticker;
        generated = Budget.generated ticker;
        elapsed = Budget.ticker_elapsed ticker;
        ordering = Some ordering;
      }
    in
    match C.trivial p with
    | Some w -> finish (Exact w) (Array.init (Graph.n (C.graph p)) Fun.id)
    | None ->
        let rng = Random.State.make [| seed |] in
        let ub_sigma, ub0, lb0 = C.initial p rng in
        let inc =
          match Budget.incumbent within with
          | Some i -> i
          | None -> Incumbent.create ()
        in
        ignore (Incumbent.offer_ub inc ~witness:ub_sigma (C.ceil ub0));
        ignore (Incumbent.raise_lb inc (C.ceil lb0));
        let lb =
          if C.integral then C.max lb0 (C.of_int (Incumbent.lb inc)) else lb0
        in
        if closed_of inc ~best:ub0 ~lb then
          finish (Exact (ub_of inc ub0))
            (witness_of inc ~best:ub0 ~sigma:ub_sigma)
        else
          let outcome, ordering =
            body { problem = p; ticker; inc; rng; ub = (ub_sigma, ub0); lb }
          in
          finish outcome ordering

  (* a sequential search: one searcher from the prologue's state *)
  let run_searcher ?within ~seed ~span input body =
    Obs.with_span span @@ fun () ->
    run ?within ~seed input @@ fun st ->
    let s = searcher st in
    let outcome = body s in
    (outcome, witness s)

  (* BB's one stop rule.  The budget also ends when its incumbent
     closes, which proves the upper bound optimal: that stop is
     [Closed]. *)
  let stop_if_out s =
    if Budget.out_of_budget s.ticker then
      raise (if closed s then Closed else Out_of_budget)

  let bb_span = "bb_" ^ C.name ^ ".solve"
  let astar_span = "astar_" ^ C.name ^ ".solve"

  let bb ?within ?use_pr2 ?use_reductions ~seed input =
    run_searcher ?within ~seed ~span:bb_span input @@ fun s ->
    let path = ref [] in
    (* depth-first over elimination choices; [g] is the cost of the
       partial ordering, [f_floor] the inherited f of the parent *)
    let rec branch ~g ~f_floor ~reduced =
      stop_if_out s;
      if closed s then raise Closed;
      Budget.tick_visited s.ticker;
      Obs.Counter.incr Search_util.c_expanded;
      let completion = C.max g (completion s ~g) in
      offer s completion (fun () -> ordering ~n:s.n s.eg !path);
      (* a completion no better than g exists iff covering the rest at
         once already fits in g: then nothing below can improve *)
      if C.compare completion g > 0 && below s f_floor then begin
        let last = match !path with v :: _ -> v | [] -> -1 in
        let kids, via_reduction =
          children ?use_pr2 ?use_reductions s ~lb:f_floor ~reduced ~last
        in
        (* explore low-degree vertices first: they concentrate good
           orderings early, tightening ub for later siblings *)
        let degree = Elim_graph.degree s.eg in
        List.iter
          (fun v ->
            (* checked per child, not only per expansion: a run of
               pruned children never reaches the check above *)
            stop_if_out s;
            Budget.tick_generated s.ticker;
            Obs.Counter.incr Search_util.c_generated;
            let g' = C.max g (C.bag s.oracle s.eg v) in
            if below s g' then begin
              Elim_graph.eliminate s.eg v;
              path := v :: !path;
              let f = C.max (C.max g' (minor_lb s)) f_floor in
              if below s f then branch ~g:g' ~f_floor:f ~reduced:via_reduction;
              path := List.tl !path;
              Elim_graph.restore_last s.eg
            end)
          (List.sort (fun a b -> compare (degree a) (degree b)) kids)
      end
    in
    match branch ~g:C.zero ~f_floor:s.lb ~reduced:false with
    | () -> if C.exact then exhausted s else bounds s
    | exception Closed -> Exact (ub s)
    | exception Out_of_budget -> bounds s

  (* A* states are partial orderings.  They carry their path, most
     recent first: children share their parent's tail, and the path
     can travel between domains (HDA-star) where a parent pointer into
     another worker's frontier could not.  A state is pushed before its
     minor bound is added to [f] ([priced] false), and priced when it
     reaches the top of the queue ([pop_live]). *)
  type node = {
    rpath : int list;
    g : C.t;
    f : C.t;
    depth : int;
    reduced : bool;
    priced : bool;
  }

  let root f =
    { rpath = []; g = C.zero; f; depth = 0; reduced = true; priced = true }

  (* smallest f first; among equal f prefer deeper states, which reach
     goals sooner once the frontier sits at the optimum (Section 5.3) *)
  let compare_nodes a b =
    let c = C.compare a.f b.f in
    if c <> 0 then c else compare b.depth a.depth

  (* Move the elimination graph to [rpath]: restore back to the deepest
     common ancestor, then eliminate along the rest of the path. *)
  let sync s rpath =
    let target = List.rev rpath in
    let rec split xs ys =
      match (xs, ys) with
      | x :: xs', y :: ys' when x = y -> split xs' ys'
      | _ -> (xs, ys)
    in
    let to_undo, to_do = split s.at target in
    List.iter (fun _ -> Elim_graph.restore_last s.eg) to_undo;
    List.iter (Elim_graph.eliminate s.eg) to_do;
    s.at <- target

  let expand s node ~push =
    Budget.tick_visited s.ticker;
    Obs.Counter.incr Search_util.c_expanded;
    sync s node.rpath;
    let completion = completion s ~g:node.g in
    let sigma () = ordering ~n:s.n s.eg node.rpath in
    if C.compare completion node.g <= 0 then begin
      offer s node.g sigma;
      true
    end
    else begin
      offer s (C.max node.g completion) sigma;
      let last = match node.rpath with v :: _ -> v | [] -> -1 in
      let kids, reduced = children s ~lb:node.f ~reduced:node.reduced ~last in
      (* children go out unpriced: most are never popped, so their
         minor bound waits until one is *)
      List.iter
        (fun v ->
          if not (Budget.out_of_budget s.ticker) then begin
            Budget.tick_generated s.ticker;
            Obs.Counter.incr Search_util.c_generated;
            let g = C.max node.g (C.bag s.oracle s.eg v) in
            let f = C.max g node.f in
            if below s f then
              push
                {
                  rpath = v :: node.rpath;
                  g;
                  f;
                  depth = node.depth + 1;
                  reduced;
                  priced = false;
                }
          end)
        kids;
      false
    end

  (* The first state that can still improve on the upper bound,
     priced.  An unpriced state on top gets its minor bound, a function
     of its live set alone, so its f becomes the one eager pricing gives
     it; if that f rose, the state goes back into the queue.  Every
     other state's f is at most its priced one, so the state returned
     is the frontier minimum under priced f-values.  Dropped (stale):
     states whose f no longer improves on the bound, because the bound
     improved after their push or their minor bound reaches it.  The
     budget is polled before every pop, so before every bound priced,
     and a stop raises [Out_of_budget]: a budget stop inside [expand]
     drops children, so an empty queue then proves nothing. *)
  let rec pop_live s queue =
    if Budget.out_of_budget s.ticker then raise Out_of_budget;
    if Pq.is_empty queue then None
    else
      let node = Pq.pop queue in
      if not (below s node.f) then begin
        Obs.Counter.incr Search_util.c_stale;
        pop_live s queue
      end
      else if node.priced then Some node
      else begin
        (* a memo hit needs no graph: most states are priced that way,
           and moving the graph to each of them costs more than the
           lookup *)
        Bitset.blit ~src:s.all ~dst:s.live;
        List.iter (Bitset.remove s.live) node.rpath;
        let minor =
          match C.minor_memo s.oracle s.live with
          | Some c -> c
          | None ->
              sync s node.rpath;
              minor_lb s
        in
        let f = C.max node.f minor in
        let node' = { node with f; priced = true } in
        if C.compare f node.f = 0 then Some node'
        else begin
          if below s f then Pq.push queue node'
          else Obs.Counter.incr Search_util.c_stale;
          pop_live s queue
        end
      end

  let astar ?within ~seed input =
    run_searcher ?within ~seed ~span:astar_span input @@ fun s ->
    let root = root s.lb in
    (* the root is a long-lived value, so using it as the queue's
       slot-clearing dummy retains nothing *)
    let queue = Pq.create ~compare:compare_nodes ~dummy:root in
    let push = Pq.push queue in
    push root;
    let rec search () =
      if closed s then Exact (ub s)
      else
        match pop_live s queue with
        | None -> exhausted s
        | Some node ->
            (* the frontier minimum f is a sound global lower bound *)
            raise_lb s node.f;
            if expand s node ~push then Exact node.g else search ()
    in
    match search () with
    | outcome -> outcome
    | exception Out_of_budget -> if closed s then Exact (ub s) else bounds s
end

module Tw = Make (Bag_cost.Tw)
module Ghw = Make (Bag_cost.Ghw)
module Ghw_greedy = Make (Bag_cost.Ghw_greedy)
module Fhw = Make (Bag_cost.Fhw)
