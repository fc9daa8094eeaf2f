module Acyclicity = Hd_hypergraph.Acyclicity
module Ghd = Hd_core.Ghd
module Td = Hd_core.Tree_decomposition
module Obs = Hd_obs.Obs

(* Observability: bag materialisation and answers; the semijoin passes
   and enumeration count themselves in Join_tree. *)
let c_bag_tuples = Obs.Counter.make "query.bag_tuples"
let c_answers = Obs.Counter.make "query.answers"
let h_bag_size = Obs.Histogram.make "query.bag_size"

type mode = Answers | Count | Boolean

type method_ = Auto | Min_fill | Bb_ghw | Portfolio

type stats = {
  acyclic : bool;
  width : int;
  bags : int;
  tuples_materialized : int;
  tuples_after_reduction : int;
  semijoins : int;
}

type result = {
  mode : mode;
  answers : string array list;
  count : int;
  nonempty : bool;
  stats : stats;
}

let total_tuples rels =
  Array.fold_left (fun acc r -> acc + Qrelation.cardinality r) 0 rels

(* ------------------------------------------------------------------ *)
(* Planning: hypergraph -> join tree of materialised bag relations     *)
(* ------------------------------------------------------------------ *)

let ordering_for ~method_ ~jobs ~seed ~time_limit h =
  let budget =
    { Hd_engine.Budget.time_limit = Some time_limit; max_states = None }
  in
  let min_fill () =
    Hd_core.Ordering_heuristics.min_fill_hypergraph
      (Random.State.make [| seed |])
      h
  in
  match method_ with
  | Auto | Min_fill -> min_fill ()
  | Bb_ghw -> (
      (* through the engine: block-split the query hypergraph first,
         then run the registered BB-ghw on each biconnected piece *)
      Hd_search.Solvers.ensure ();
      let r =
        Hd_engine.Engine.run_by_name ~seed "bb-ghw"
          (Hd_engine.Budget.of_spec budget)
          (Hd_engine.Solver.Hypergraph h)
      in
      match r.Hd_engine.Solver.ordering with
      | Some sigma -> sigma
      | None -> min_fill ())
  | Portfolio -> (
      match
        (Hd_parallel.Portfolio.solve_ghw ~jobs ~budget ~seed h)
          .Hd_parallel.Portfolio.ordering
      with
      | Some sigma -> sigma
      | None -> min_fill ())

let observe_bag r =
  Obs.Counter.add c_bag_tuples (Qrelation.cardinality r);
  Obs.Histogram.observe h_bag_size (Qrelation.cardinality r)

let plan ?par ~method_ ~jobs ~seed ~time_limit ~ordering h atom_rels =
  Obs.with_span "query.plan" @@ fun () ->
  let acyclic_tree () =
    match Acyclicity.join_tree h with
    | Some parent ->
        Array.iter observe_bag atom_rels;
        Some ({ Join_tree.rels = atom_rels; parent }, 1, true)
    | None -> None
  in
  let ghd_plan () =
    let sigma =
      (* a caller-supplied ordering (batch evaluation, server bulk
         submit) skips the per-query decomposition search entirely *)
      match ordering with
      | Some sigma -> sigma
      | None ->
          Obs.with_span "query.decompose" @@ fun () ->
          ordering_for ~method_ ~jobs ~seed ~time_limit h
    in
    (* a bag inside a neighbour's is folded into it; every atom is
       joined at each bag holding its variables, which implies
       completion (Lemma 2) *)
    let ghd =
      Ghd.of_tree_decomposition h
        (Td.simplify (Td.of_ordering_hypergraph h sigma))
        ~cover:`Exact
    in
    let tree =
      Obs.with_span "query.materialize" @@ fun () ->
      Join_tree.of_ghd ?par h ghd atom_rels
    in
    Array.iter observe_bag tree.Join_tree.rels;
    (tree, Ghd.width ghd, false)
  in
  match method_ with
  | Auto -> (
      match acyclic_tree () with Some t -> t | None -> ghd_plan ())
  | Min_fill | Bb_ghw | Portfolio -> ghd_plan ()

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let empty_result mode stats = { mode; answers = []; count = 0; nonempty = false; stats }

let run ?(method_ = Auto) ?(jobs = 1) ?(seed = 42) ?(time_limit = 10.0)
    ?ordering ?par ~mode db q =
  Obs.with_span "query.run" @@ fun () ->
  let vars = Cq.variables q in
  let n_vars = Array.length vars in
  let var_ids = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.add var_ids v i) vars;
  let var_id v = Hashtbl.find var_ids v in
  let head_ids = Array.map var_id q.Cq.head in
  let ground, proper = List.partition Cq.is_ground q.Cq.body in
  let no_stats ~acyclic ~width ~bags =
    {
      acyclic;
      width;
      bags;
      tuples_materialized = 0;
      tuples_after_reduction = 0;
      semijoins = 0;
    }
  in
  (* ground atoms are membership tests independent of the variables *)
  let ground_holds =
    List.for_all
      (fun a -> not (Qrelation.is_empty (Db.relation_for_atom db ~var_id a)))
      ground
  in
  if not ground_holds then
    empty_result mode (no_stats ~acyclic:true ~width:0 ~bags:0)
  else if proper = [] then
    (* variable-free query: the single empty answer *)
    {
      mode;
      answers = (match mode with Answers -> [ [||] ] | _ -> []);
      count = 1;
      nonempty = true;
      stats = no_stats ~acyclic:true ~width:0 ~bags:0;
    }
  else begin
    let h = Cq.hypergraph q in
    let atom_rels =
      Array.of_list
        (List.map (fun a -> Db.relation_for_atom db ~var_id a) proper)
    in
    let tree, width, acyclic =
      plan ?par ~method_ ~jobs ~seed ~time_limit ~ordering h atom_rels
    in
    let tuples_materialized = total_tuples tree.Join_tree.rels in
    let st = Join_tree.start tree in
    let stats () =
      {
        acyclic;
        width;
        bags = Array.length tree.Join_tree.rels;
        tuples_materialized;
        tuples_after_reduction = Join_tree.surviving st;
        semijoins = Join_tree.semijoins st;
      }
    in
    let head_covers_all =
      let covered = Array.make n_vars false in
      Array.iter (fun v -> covered.(v) <- true) head_ids;
      Array.for_all Fun.id covered
    in
    let reduced =
      Obs.with_span "query.reduce" (fun () ->
          Join_tree.reduce ?par ~full:(mode <> Boolean) st)
    in
    if not reduced then empty_result mode (stats ())
    else
      match mode with
      | Boolean ->
          { mode; answers = []; count = 1; nonempty = true; stats = stats () }
      | Count when head_covers_all ->
          (* the head covers every variable: distinct answers are in
             bijection with full assignments -- count by weights, no
             materialisation *)
          let count = Join_tree.count st in
          Obs.Counter.add c_answers count;
          { mode; answers = []; count; nonempty = count > 0; stats = stats () }
      | Count | Answers ->
          (* enumerate and deduplicate the head projections *)
          let seen = Hashtbl.create 256 in
          Join_tree.iter st ~n_vars (fun env ->
              let proj = Array.map (fun v -> env.(v)) head_ids in
              if not (Hashtbl.mem seen proj) then begin
                Hashtbl.add seen proj ();
                Obs.Counter.incr c_answers
              end);
          let count = Hashtbl.length seen in
          let answers =
            if mode = Answers then
              Hashtbl.fold (fun proj () acc -> Db.decode db proj :: acc) seen []
            else []
          in
          { mode; answers; count; nonempty = count > 0; stats = stats () }
  end
