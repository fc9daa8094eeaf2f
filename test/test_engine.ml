(* hd_engine: budgets, the solver registry, and decompose-by-blocks.

   Also enforces the timing-source invariant of the refactor: outside
   lib/engine and lib/obs, no module reads the wall clock directly —
   every deadline goes through Budget, every measurement through
   Clock. *)

module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module B = Hd_engine.Budget
module S = Hd_engine.Solver
module Blocks = Hd_engine.Blocks
module Engine = Hd_engine.Engine
module Obs = Hd_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let prev = ref (Hd_engine.Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Hd_engine.Clock.now () in
    check "non-decreasing" true (t >= !prev);
    prev := t
  done

let test_clock_time () =
  let x, secs = Hd_engine.Clock.time (fun () -> 41 + 1) in
  check_int "result" 42 x;
  check "elapsed >= 0" true (secs >= 0.0)

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_starts_on_run () =
  (* creating a budget must not start its clock: the deadline counts
     from the first start/ticker, not from construction *)
  let b = B.create ~time_limit:10.0 () in
  Unix.sleepf 0.05;
  check "elapsed 0 before the first ticker" true (B.elapsed b = 0.0);
  ignore (B.ticker b);
  Unix.sleepf 0.001;
  check "clock runs after the first ticker" true (B.elapsed b > 0.0);
  check "sleep before start not counted" true (B.elapsed b < 0.04)

let test_budget_sub_rollover () =
  (* sub-budgets split the time *remaining*, so what stage 1 leaves
     unspent rolls over: with ~9s left, a 3-way split gives ~3s and a
     later 2-way split gives ~4.5s, not a fixed 9/3 = 3s *)
  let b = B.create ~time_limit:9.0 () in
  B.start b;
  let s1 = B.sub ~stages:3 b in
  (match B.time_limit s1 with
  | Some t -> check "first split ~ 3s" true (t > 2.5 && t <= 3.0)
  | None -> Alcotest.fail "sub of a timed budget must be timed");
  let s2 = B.sub ~stages:2 b in
  (match B.time_limit s2 with
  | Some t -> check "rollover: later split > 4s" true (t > 4.0)
  | None -> Alcotest.fail "sub of a timed budget must be timed");
  (* the sub shares the parent's cancel flag but never its incumbent *)
  let inc = Hd_core.Incumbent.create () in
  let p = B.create ~incumbent:inc () in
  let s = B.sub p in
  check "sub drops incumbent" true (B.incumbent s = None);
  B.cancel p;
  check "sub shares cancellation" true (B.cancelled s)

let test_ticker_max_states () =
  let b = B.create ~max_states:10 () in
  let tk = B.ticker b in
  for _ = 1 to 10 do
    B.tick_generated tk
  done;
  check "at the cap: not out" false (B.out_of_budget tk);
  B.tick_generated tk;
  check "over the cap: out" true (B.out_of_budget tk);
  check "latched" true (B.out_of_budget tk);
  check_int "generated counted" 11 (B.generated tk)

let test_ticker_expired_deadline () =
  let b = B.create ~time_limit:(-1.0) () in
  let tk = B.ticker b in
  check "already expired" true (B.out_of_budget tk)

let test_ticker_cancellation_counter () =
  Obs.enable ();
  Obs.reset ();
  let counter () =
    Obs.Counter.value (Obs.Counter.make "engine.cancellations")
  in
  let before = counter () in
  let b = B.create () in
  let tk = B.ticker b in
  check "unlimited budget never trips" false (B.out_of_budget tk);
  B.cancel b;
  check "cancelled" true (B.out_of_budget tk);
  check_int "engine.cancellations incremented" (before + 1) (counter ());
  check "latched after cancel" true (B.out_of_budget tk);
  check_int "counted once" (before + 1) (counter ());
  Obs.disable ()

let test_budget_remaining_clamped () =
  (* regression: past the deadline, the remaining time used to go
     negative, so a sub-budget cut after expiry got a *negative* time
     limit — later arithmetic treated it as slack *)
  let b = B.create ~time_limit:0.01 () in
  B.start b;
  Unix.sleepf 0.03;
  check "sub after expiry gets 0s" true (B.time_limit (B.sub b) = Some 0.0);
  (* a sub of an unstarted budget still gets the full limit *)
  let fresh = B.create ~time_limit:5.0 () in
  check "unstarted: sub gets the full limit" true
    (B.time_limit (B.sub fresh) = Some 5.0)

let test_budget_sub_own_cancel_flag () =
  (* regression: sub-budgets used to share the parent's cancellation
     cell outright, so cancelling one block's budget killed its
     siblings and the rest of the split was skipped *)
  let b = B.create () in
  let s1 = B.sub b in
  let s2 = B.sub b in
  B.cancel s1;
  check "cancelled sub is cancelled" true (B.cancelled s1);
  check "sibling unaffected" false (B.cancelled s2);
  check "parent unaffected" false (B.cancelled b);
  B.cancel b;
  check "parent cancel reaches all subs" true
    (B.cancelled s1 && B.cancelled s2);
  (* end to end: block solving still succeeds after a sibling cancel —
     two triangles joined at a cut vertex split into two blocks, each
     solved under its own sub of the same parent *)
  Hd_parallel.Registry.ensure ();
  let g =
    Graph.of_edges 5 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ]
  in
  let parent = B.create () in
  B.cancel (B.sub parent);
  let r =
    Engine.run_by_name "bb-tw" parent (S.Graph g)
  in
  (match r.S.outcome with
  | S.Exact w -> check_int "two triangles: tw 2 after sibling cancel" 2 w
  | S.Bounds _ -> Alcotest.fail "uncancelled blocks must still solve exactly")

let test_budget_scheduler_inherited () =
  (* blocks within blocks fork onto the one scheduler of the run: subs
     and pooled views carry the parent's, and a fresh budget none *)
  check "fresh budget: no scheduler" true (B.scheduler (B.create ()) = None);
  Hd_engine.Scheduler.with_scheduler ~workers:0 (fun s ->
      let same b =
        match B.scheduler b with Some s' -> s' == s | None -> false
      in
      let b = B.create ~max_states:10 ~scheduler:s () in
      check "create keeps it" true (same b);
      check "sub inherits it" true (same (B.sub ~stages:2 b));
      check "pooled inherits it" true (same (B.pooled b));
      check "sub of sub inherits it" true (same (B.sub (B.sub b))))

let test_spec_equation () =
  (* a passive spec (what orchestration boundaries take) becomes the
     running budget solver entry points take, limits intact *)
  let spec = { B.time_limit = Some 1.5; max_states = Some 7 } in
  let b = B.of_spec spec in
  check "time_limit carried" true (B.time_limit b = Some 1.5);
  check "max_states carried" true (B.max_states b = Some 7)

(* ------------------------------------------------------------------ *)
(* Blocks                                                              *)
(* ------------------------------------------------------------------ *)

let roots blocks =
  List.length (List.filter (fun b -> b.Blocks.attach = -1) blocks)

let test_split_path () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let blocks = Blocks.split g in
  check_int "path of 5: 4 edge blocks" 4 (List.length blocks);
  List.iter
    (fun b -> check_int "each block is one edge" 2 (Array.length b.Blocks.vertices))
    blocks;
  check_int "one root block" 1 (roots blocks)

let test_split_cycle () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let blocks = Blocks.split g in
  check_int "cycle is biconnected" 1 (List.length blocks);
  check_int "whole graph" 5 (Array.length (List.hd blocks).Blocks.vertices);
  check_int "root" 1 (roots blocks)

let test_split_two_triangles () =
  (* two triangles sharing vertex 2: the textbook articulation point *)
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2) ] in
  let blocks = Blocks.split g in
  check_int "two blocks" 2 (List.length blocks);
  List.iter
    (fun b -> check_int "triangles" 3 (Array.length b.Blocks.vertices))
    blocks;
  check_int "one root" 1 (roots blocks);
  (* the non-root block attaches at the shared vertex, locally indexed *)
  List.iter
    (fun b ->
      if b.Blocks.attach >= 0 then
        check_int "attach is the cut vertex" 2
          b.Blocks.vertices.(b.Blocks.attach))
    blocks

let test_split_isolated () =
  let g = Graph.create 3 in
  let blocks = Blocks.split g in
  check_int "three singletons" 3 (List.length blocks);
  List.iter
    (fun b ->
      check_int "singleton" 1 (Array.length b.Blocks.vertices);
      check_int "root" (-1) b.Blocks.attach)
    blocks

let test_split_covers_vertices () =
  (* every vertex appears once as a non-attach occurrence *)
  let g = Graph.of_edges 7 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (5, 6) ] in
  let blocks = Blocks.split g in
  let seen = Array.make 7 0 in
  List.iter
    (fun b ->
      Array.iteri
        (fun i v -> if i <> b.Blocks.attach then seen.(v) <- seen.(v) + 1)
        b.Blocks.vertices)
    blocks;
  Array.iteri (fun v c -> check_int (Printf.sprintf "vertex %d" v) 1 c) seen;
  check_int "one root per component" 2 (roots blocks)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_idempotent () =
  Hd_parallel.Registry.ensure ();
  let names = S.names () in
  Hd_parallel.Registry.ensure ();
  check "double ensure keeps the roster" true (names = S.names ());
  check "astar-tw present" true (S.find "astar-tw" <> None);
  check "saiga-ghw present" true (S.find "saiga-ghw" <> None);
  check "unknown absent" true (S.find "no-such-solver" = None)

let test_run_by_name_unknown () =
  Hd_parallel.Registry.ensure ();
  check "unknown name raises" true
    (try
       ignore
         (Engine.run_by_name "no-such-solver" (B.create ())
            (S.Graph (Graph.grid 2 2)));
       false
     with Invalid_argument msg ->
       (* the error lists what IS available *)
       let has_sub needle hay =
         let nl = String.length needle and hl = String.length hay in
         let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
         go 0
       in
       has_sub "bb-tw" msg)

let test_all_solvers_sound_under_tiny_budget () =
  (* every registered solver must return quickly under a 50ms deadline
     with consistent bounds and a witness no better than it claims *)
  Hd_parallel.Registry.ensure ();
  let g = Hd_instances.Graphs.grid 3 in
  let h = Hypergraph.of_graph g in
  List.iter
    (fun (s : S.t) ->
      let problem =
        match s.S.kind with
        | S.Tw -> S.Graph g
        | S.Ghw | S.Fhw | S.Hw -> S.Hypergraph h
      in
      let r, secs =
        Hd_engine.Clock.time @@ fun () ->
        Engine.run ~seed:1 s (B.create ~time_limit:0.05 ()) problem
      in
      let label fmt = Printf.sprintf fmt s.S.name in
      check (label "%s returns promptly") true (secs < 5.0);
      let lb, ub = S.bounds_of r.S.outcome in
      check (label "%s: lb <= ub") true (lb <= ub);
      check (label "%s: positive ub") true (ub >= 0);
      match (r.S.ordering, s.S.kind) with
      | Some sigma, S.Tw ->
          let td = Td.of_ordering g sigma in
          check (label "%s witness valid") true (Td.valid_for_graph g td);
          check (label "%s witness width <= ub") true (Td.width td <= ub)
      | Some sigma, S.Ghw ->
          let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
          check (label "%s witness valid") true (Ghd.valid h ghd);
          check (label "%s witness width <= ub") true (Ghd.width ghd <= ub)
      | Some sigma, S.Fhw ->
          let fhw = Hd_core.Eval.(fhw_width_q (of_hypergraph h) sigma) in
          check (label "%s witness ceil(fhw) <= ub") true
            (Hd_lp.Rat.ceil fhw <= ub)
      | _ -> ())
    (S.all ())

(* Budget adherence over the whole registry: every solver stops within
   a few deadlines of its budget, and a state cap holds to one batch.
   circuit_03 of the bundled corpus is large enough that no exact
   solver finishes in 0.1s. *)
let test_registry_budget_adherence () =
  Hd_parallel.Registry.ensure ();
  let h =
    match List.assoc_opt "csp-synth" (Hd_instances.Mini_corpus.collections ()) with
    | Some files -> Hd_hypergraph.Hg_format.parse_string (List.assoc "circuit_03.hg" files)
    | None -> Alcotest.fail "csp-synth missing"
  in
  let n = Hypergraph.n_vertices h in
  let problem (s : S.t) =
    match s.S.kind with
    | S.Tw -> S.Graph (Hypergraph.primal h)
    | S.Ghw | S.Fhw | S.Hw -> S.Hypergraph h
  in
  let run s b = Engine.run ~blocks:false ~seed:1 s b (problem s) in
  let prefix p name =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  (* the -par entries run on the scheduler the budget lends them *)
  Hd_engine.Scheduler.with_scheduler ~workers:1 @@ fun sched ->
  let executors b =
    match B.scheduler b with
    | Some s -> Hd_engine.Scheduler.size s + 1
    | None -> 1
  in
  (* the most states a solver generates past the cap: one population
     for the GAs (Hd_ga.Solvers: 300 individuals; SAIGA 4 islands of
     60, one island per executor for saiga-ghw-par), one node's
     children per executor for HDA-star, whose workers
     each finish the expansion they are in, and a single state for the
     sequential searches, det-k and SA, which check the budget before
     every child, subproblem or step *)
  let batch (s : S.t) b =
    let name = s.S.name in
    if prefix "ga-" name then 300
    else if prefix "saiga" name then
      60 * if Filename.check_suffix name "-par" then executors b else 4
    else if Filename.check_suffix name "-par" then n * executors b
    else 1
  in
  let cap = 200 in
  List.iter
    (fun (s : S.t) ->
      let _, secs =
        Hd_engine.Clock.time @@ fun () ->
        run s (B.create ~time_limit:0.1 ~scheduler:sched ())
      in
      check
        (Printf.sprintf "%s returns within 0.6s of a 0.1s deadline (%.3fs)"
           s.S.name secs)
        true (secs < 0.6);
      let b = B.create ~max_states:cap ~scheduler:sched () in
      let r = run s b in
      check
        (Printf.sprintf "%s: generated %d <= %d + %d" s.S.name r.S.generated
           cap (batch s b))
        true
        (r.S.generated <= cap + batch s b))
    (S.all ())

(* a random hypergraph on [n] vertices with n to 3n - 1 edges of two
   or three vertices (dense enough that the initial bounds often leave
   the exact searches work to do), every vertex in some edge *)
let random_hypergraph seed n =
  let rng = Random.State.make [| seed |] in
  let vertex () = Random.State.int rng n in
  let edges =
    List.init
      (n + Random.State.int rng (2 * n))
      (fun _ -> List.init (2 + Random.State.int rng 2) (fun _ -> vertex ()))
  in
  let uncovered =
    List.filter
      (fun v -> not (List.exists (List.mem v) edges))
      (List.init n Fun.id)
  in
  Hypergraph.create ~n
    (List.map (List.sort_uniq compare)
       (edges @ List.map (fun v -> [ v; vertex () ]) uncovered))

(* Cross-solver soundness: under a state cap, no registered solver's
   lower bound exceeds any solver's upper bound for the same width.  An
   unsound [Bounds] from any instance of the ordering-search core, or
   from any other solver, breaks it. *)
let prop_cross_solver_bounds =
  QCheck.Test.make ~count:200 ~name:"every lb <= every ub of the same width"
    QCheck.(triple (int_bound 10_000) (int_range 3 7) (int_range 1 20))
    (fun (seed, n, max_states) ->
      Hd_parallel.Registry.ensure ();
      let h = random_hypergraph seed n in
      let bounds =
        List.map
          (fun (s : S.t) ->
            let p =
              match s.S.kind with
              | S.Tw -> S.Graph (Hypergraph.primal h)
              | S.Ghw | S.Fhw | S.Hw -> S.Hypergraph h
            in
            let r = Engine.run ~seed:1 s (B.create ~max_states ()) p in
            (s.S.kind, S.bounds_of r.S.outcome))
          (S.all ())
      in
      List.for_all
        (fun (kind, (lb, _)) ->
          List.for_all
            (fun (kind', (_, ub)) -> kind <> kind' || lb <= ub)
            bounds)
        bounds)

(* A state cap can stop an A* inside an expansion, dropping children
   the queue never sees: an empty queue afterwards proves nothing, so
   the capped A*s and a single-worker HDA-star may call a width exact
   only when it is the true one, and their bounds must bracket it.
   Tiny caps on random instances whose initial upper bound is often
   not optimal make the cut common; caps up to 40 let many children be
   pushed unpriced and priced out at a later pop, so a budget stop can
   also land while the queue is being priced. *)
let test_capped_astar_exact_is_true () =
  Hd_parallel.Registry.ensure ();
  for seed = 0 to 249 do
    let h = random_hypergraph seed (5 + (seed mod 5)) in
    let run name within p = (Engine.run_by_name ~seed:1 name within p).S.outcome in
    let truth name p =
      match run name (B.create ()) p with
      | S.Exact w -> w
      | S.Bounds _ -> Alcotest.fail "an unlimited A* must finish"
    in
    let g = S.Graph (Hypergraph.primal h) and hg = S.Hypergraph h in
    let tw = truth "astar-tw" g and ghw = truth "astar-ghw" hg in
    for cap = 0 to 40 do
      let within () = B.create ~max_states:cap () in
      List.iter
        (fun (label, truth, outcome) ->
          match outcome with
          | S.Exact w when w <> truth ->
              Alcotest.failf "%s, seed %d, cap %d: Exact %d, width is %d" label
                seed cap w truth
          | S.Bounds { lb; ub } when lb > truth || ub < truth ->
              Alcotest.failf "%s, seed %d, cap %d: [%d,%d], width is %d" label
                seed cap lb ub truth
          | _ -> ())
        [
          ("astar-tw", tw, run "astar-tw" (within ()) g);
          ("astar-ghw", ghw, run "astar-ghw" (within ()) hg);
          ("astar-tw-par", tw, run "astar-tw-par" (within ()) g);
          ("astar-ghw-par", ghw, run "astar-ghw-par" (within ()) hg);
          ( "hdastar tw",
            tw,
            (Hd_search.Solvers.of_int
               (Hd_parallel.Hdastar.Tw.solve ~within:(within ()) ~seed:0x7ea
                  (Hypergraph.primal h)))
              .S.outcome );
          ( "hdastar ghw",
            ghw,
            (Hd_search.Solvers.of_int
               (Hd_parallel.Hdastar.Ghw.solve ~within:(within ()) ~seed:0xa5a h))
              .S.outcome );
        ]
    done
  done

(* ------------------------------------------------------------------ *)
(* Decompose-by-blocks: engine results vs monolithic                   *)
(* ------------------------------------------------------------------ *)

let value_of = function
  | S.Exact w -> w
  | S.Bounds _ -> Alcotest.fail "expected an exact outcome on a tiny instance"

let test_blocks_chain_tw () =
  Hd_parallel.Registry.ensure ();
  let core = Hd_instances.Graphs.queen 4 in
  let chain = Hd_instances.Graphs.chain ~copies:3 core in
  let solo =
    value_of
      (Engine.run_by_name ~seed:1 "bb-tw" (B.create ()) (S.Graph core)).S.outcome
  in
  let split =
    Engine.run_by_name ~seed:1 "bb-tw" (B.create ()) (S.Graph chain)
  in
  let mono =
    Engine.run_by_name ~blocks:false ~seed:1 "bb-tw" (B.create ())
      (S.Graph chain)
  in
  check_int "split = solo width" solo (value_of split.S.outcome);
  check_int "mono = solo width" solo (value_of mono.S.outcome);
  (match split.S.ordering with
  | Some sigma ->
      let td = Td.of_ordering chain sigma in
      check "stitched witness valid" true (Td.valid_for_graph chain td);
      check_int "stitched witness width" solo (Td.width td)
  | None -> Alcotest.fail "block-split run must return a witness");
  (* the blocks counters moved *)
  Obs.enable ();
  Obs.reset ();
  ignore (Engine.run_by_name ~seed:1 "bb-tw" (B.create ()) (S.Graph chain));
  let v name = Obs.Counter.value (Obs.Counter.make name) in
  check "engine.blocks >= 3" true (v "engine.blocks" >= 3);
  ignore (Engine.run_by_name ~seed:1 "bb-tw" (B.create ()) (S.Graph core));
  check "engine.block_skips after biconnected input" true
    (v "engine.block_skips" >= 1);
  Obs.disable ()

let prop_blocks_equal_mono_tw =
  QCheck.Test.make ~count:8 ~name:"blocks: tw(chain) = tw(core), split = mono"
    QCheck.(pair (int_bound 1000) (int_range 2 3))
    (fun (seed, copies) ->
      Hd_parallel.Registry.ensure ();
      let core = Hd_instances.Graphs.random_gnp ~seed ~n:6 ~p:0.5 in
      let chain = Hd_instances.Graphs.chain ~copies core in
      let run ?blocks p =
        value_of
          (Engine.run_by_name ?blocks ~seed:1 "bb-tw" (B.create ()) (S.Graph p))
            .S.outcome
      in
      let solo = run core in
      let split_r =
        Engine.run_by_name ~seed:1 "bb-tw" (B.create ()) (S.Graph chain)
      in
      let witness_ok =
        match split_r.S.ordering with
        | Some sigma ->
            let td = Td.of_ordering chain sigma in
            Td.valid_for_graph chain td && Td.width td = solo
        | None -> false
      in
      value_of split_r.S.outcome = solo
      && run ~blocks:false chain = solo
      && witness_ok)

let prop_blocks_equal_mono_ghw =
  QCheck.Test.make ~count:6 ~name:"blocks: ghw(chain) = ghw(core), split = mono"
    QCheck.(int_bound 1000)
    (fun seed ->
      Hd_parallel.Registry.ensure ();
      let core = Hd_instances.Graphs.random_gnp ~seed ~n:5 ~p:0.6 in
      (* of_graph gives one 2-vertex hyperedge per graph edge, so an
         isolated vertex would lie in no hyperedge — not a valid ghw
         instance (bb-ghw rejects it by contract); skip those samples *)
      let no_isolated g =
        let ok = ref true in
        for v = 0 to Graph.n g - 1 do
          if Graph.neighbors g v = [] then ok := false
        done;
        !ok
      in
      QCheck.assume (no_isolated core);
      let chain = Hd_instances.Graphs.chain ~copies:2 core in
      let run ?blocks g =
        value_of
          (Engine.run_by_name ?blocks ~seed:1 "bb-ghw" (B.create ())
             (S.Hypergraph (Hypergraph.of_graph g)))
            .S.outcome
      in
      let solo = run core in
      run chain = solo && run ~blocks:false chain = solo)

(* ------------------------------------------------------------------ *)
(* Blocks through the work-stealing scheduler                          *)
(* ------------------------------------------------------------------ *)

let test_blocks_parallel_identical () =
  (* with a scheduler in its budget, Engine.run forks the biconnected
     blocks as concurrent tasks — and the full result (outcome,
     stitched witness, state counts) is byte-identical to the
     sequential driver, the -j1 acceptance bar of the refactor *)
  Hd_parallel.Registry.ensure ();
  let chain = Hd_instances.Graphs.chain ~copies:3 (Hd_instances.Graphs.queen 4) in
  let solve budget =
    Engine.run_by_name ~seed:1 "bb-tw" budget (S.Graph chain)
  in
  let compare_runs budget =
    let seq = solve (budget None) in
    let par =
      Hd_engine.Scheduler.with_scheduler ~workers:2 (fun s ->
          solve (budget (Some s)))
    in
    check "outcome identical" true (par.S.outcome = seq.S.outcome);
    check "witness identical" true (par.S.ordering = seq.S.ordering);
    check_int "visited identical" seq.S.visited par.S.visited;
    check_int "generated identical" seq.S.generated par.S.generated
  in
  compare_runs (fun scheduler -> B.create ?scheduler ());
  (* also under a state-capped budget: the equal upfront sub shares
     make the parallel split deterministic there too *)
  compare_runs (fun scheduler -> B.create ~max_states:200_000 ?scheduler ())

let test_blocks_cancel_under_runner () =
  (* the sibling-cancel regression, now through the scheduler:
     cancelling one sub of the parent budget must not leak into the
     concurrently-forked block solves *)
  Hd_parallel.Registry.ensure ();
  let g =
    Graph.of_edges 5 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (4, 2) ]
  in
  Hd_engine.Scheduler.with_scheduler ~workers:2 (fun s ->
      let parent = B.create ~scheduler:s () in
      B.cancel (B.sub parent);
      let r = Engine.run_by_name ~seed:1 "bb-tw" parent (S.Graph g) in
      (match r.S.outcome with
      | S.Exact w -> check_int "two triangles: tw 2 under concurrent blocks" 2 w
      | S.Bounds _ ->
          Alcotest.fail "sibling cancel must not kill concurrent blocks");
      (* a cancelled parent, by contrast, reaches every forked task *)
      let dead = B.create ~scheduler:s () in
      B.cancel dead;
      let r = Engine.run_by_name ~seed:1 "bb-tw" dead (S.Graph g) in
      match r.S.outcome with
      | S.Exact _ -> Alcotest.fail "cancelled parent must not prove exactness"
      | S.Bounds _ -> ())

(* ------------------------------------------------------------------ *)
(* Local search: the clock starts at run, not before                   *)
(* ------------------------------------------------------------------ *)

let test_local_search_clock_starts_at_run () =
  let config = Hd_ga.Local_search.default_config ~max_steps:200 ~seed:3 () in
  let within = B.create ~time_limit:0.2 () in
  (* if the limit counted from budget creation this sleep would exhaust
     it and the run would do no steps at all *)
  Unix.sleepf 0.25;
  let r = Hd_ga.Local_search.sa_tw ~within config (Graph.grid 3 3) in
  check "steps ran after the sleep" true (r.Hd_ga.Local_search.steps > 0);
  check "elapsed excludes pre-run time" true
    (r.Hd_ga.Local_search.elapsed < 0.2)

(* ------------------------------------------------------------------ *)
(* Step: run-for-a-slice / park / resume                               *)
(* ------------------------------------------------------------------ *)

module Step = Hd_engine.Step

(* a budgeted computation that polls its ticker [polls] times; with a
   zero-length slice every actual clock read yields, so it needs
   several slices to finish *)
let polling_computation b polls =
  let tk = B.ticker b in
  let work = ref 0 in
  for _ = 1 to polls do
    incr work;
    B.check tk
  done;
  !work

let test_step_yields_then_finishes () =
  let b = B.create () in
  let step = Step.make b (fun () -> polling_computation b 50_000) in
  check "fresh step not finished" false (Step.finished step);
  (match Step.slice step ~seconds:0.0 with
  | Step.Yielded -> ()
  | Step.Done _ -> Alcotest.fail "a zero slice must park the computation");
  check "parked, not finished" false (Step.finished step);
  let v = Step.run_to_completion ~seconds:0.0 step in
  check_int "result survives parking" 50_000 v;
  check "finished" true (Step.finished step);
  check "resumed over several slices" true (Step.slices step >= 2);
  (match Step.slice step ~seconds:0.0 with
  | Step.Done v' -> check_int "done result cached" 50_000 v'
  | Step.Yielded -> Alcotest.fail "a finished step must return Done")

let test_step_credits_parked_time () =
  (* a sliced budget's deadline measures compute time: parking for
     longer than the whole time limit must not expire it *)
  let b = B.create ~time_limit:10.0 () in
  let step = Step.make b (fun () -> polling_computation b 50_000) in
  (match Step.slice step ~seconds:0.0 with
  | Step.Yielded -> ()
  | Step.Done _ -> Alcotest.fail "expected a yield");
  Unix.sleepf 0.05;
  let v = Step.run_to_completion ~seconds:0.0 step in
  check_int "finished despite the pause" 50_000 v;
  check "park time not billed" true (B.elapsed b < 0.04)

let test_step_cancel_while_parked () =
  (* cancelling a parked job must not drop its continuation: the next
     slice resumes it, the poll observes the cancel, and the
     computation returns what it has *)
  let b = B.create () in
  let step =
    Step.make b (fun () ->
        let tk = B.ticker b in
        let n = ref 0 in
        while (not (B.out_of_budget tk)) && !n < 1_000_000 do
          incr n
        done;
        !n)
  in
  (match Step.slice step ~seconds:0.0 with
  | Step.Yielded -> ()
  | Step.Done _ -> Alcotest.fail "expected a yield");
  B.cancel b;
  let n = Step.run_to_completion ~seconds:0.0 step in
  check "cancelled promptly after resume" true (n < 1_000_000)

let test_step_slices_whole_engine_run () =
  (* the integration the server relies on: Engine.run (with block
     splitting and sub-budgets) parks and resumes transparently,
     because every sub shares the root's slice deadline cell *)
  Hd_parallel.Registry.ensure ();
  (* grids are heuristically closed for bb-tw (root lb = min-fill ub),
     which would finish without a single ticker poll; the GA polls on
     every fitness evaluation, so a state cap guarantees a long,
     poll-dense run that must park many times under zero-length
     slices *)
  let g = Graph.grid 4 4 in
  let b = B.create ~max_states:2000 () in
  let solver = Option.get (S.find "ga-tw") in
  let step = Step.make b (fun () -> Engine.run ~seed:1 solver b (S.Graph g)) in
  let r = Step.run_to_completion ~seconds:0.0 step in
  let lb, ub = S.bounds_of r.S.outcome in
  check "bounds sane" true (0 <= lb && lb <= ub && ub <= 15);
  check "solve actually got sliced" true (Step.slices step >= 2)

let test_step_slices_blocks_under_runner () =
  (* a sliced solve keeps its blocks on the slicing domain even when
     its budget carries a scheduler: forked blocks would run unsliced
     and never park.  Slicing moves no state, so the result equals an
     unsliced run's *)
  Hd_parallel.Registry.ensure ();
  let chain = Hd_instances.Graphs.chain ~copies:3 (Graph.grid 4 4) in
  check "multi-block instance" true
    (List.length (Blocks.split chain) >= 3);
  let solver = Option.get (S.find "ga-tw") in
  let plain =
    Engine.run ~seed:1 solver (B.create ~max_states:2000 ()) (S.Graph chain)
  in
  Hd_engine.Scheduler.with_scheduler ~workers:2 (fun s ->
      let b = B.create ~max_states:2000 ~scheduler:s () in
      let step =
        Step.make b (fun () -> Engine.run ~seed:1 solver b (S.Graph chain))
      in
      let r = Step.run_to_completion ~seconds:0.0 step in
      check "parked at least twice" true (Step.slices step >= 3);
      check "outcome = unsliced" true (r.S.outcome = plain.S.outcome);
      check "witness = unsliced" true (r.S.ordering = plain.S.ordering))

(* astar-ghw-par on csp-synth's circuit_03, run on a given budget *)
let circuit_03_ghw_par () =
  Hd_parallel.Registry.ensure ();
  let h =
    Hd_hypergraph.Hg_format.parse_string
      (List.assoc "circuit_03.hg"
         (List.assoc "csp-synth" (Hd_instances.Mini_corpus.collections ())))
  in
  let solver = Option.get (S.find "astar-ghw-par") in
  fun b -> Engine.run ~seed:1 solver b (S.Hypergraph h)

(* [run] sliced into zero-length slices on budget [b] parks at least
   once, and slicing moves no state: the result equals [plain]'s *)
let check_sliced_like_plain run b (plain : S.result) =
  let step = Step.make b (fun () -> run b) in
  let r = Step.run_to_completion ~seconds:0.0 step in
  check "parked at least once" true (Step.slices step >= 2);
  check "outcome = unsliced" true (r.S.outcome = plain.S.outcome);
  check_int "visited = unsliced" plain.S.visited r.S.visited;
  check_int "generated = unsliced" plain.S.generated r.S.generated

let test_step_slices_hdastar_worker () =
  (* a budget without a scheduler runs HDA*'s one worker inline: it
     parks on the slice deadline like the sequential A* *)
  let run = circuit_03_ghw_par () in
  check_sliced_like_plain run
    (B.create ~max_states:2000 ())
    (run (B.create ~max_states:2000 ()))

let test_step_slices_hdastar_under_runner () =
  (* a sliced solve runs HDA*'s one worker inline even when its budget
     carries a scheduler: forked workers would run unsliced and finish
     in one slice *)
  let run = circuit_03_ghw_par () in
  let plain = run (B.create ~max_states:2000 ()) in
  Hd_engine.Scheduler.with_scheduler ~workers:1 (fun s ->
      check_sliced_like_plain run
        (B.create ~max_states:2000 ~scheduler:s ())
        plain)

(* ------------------------------------------------------------------ *)
(* Source invariants: one clock, one domain spawner, one join kernel   *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let sl = String.length sub and l = String.length s in
  let rec go i = i + sl <= l && (String.sub s i sl = sub || go (i + 1)) in
  go 0

(* the .ml/.mli files under [dirs] (source trees this test declares as
   deps) that mention [needle], skipping paths [exempt] accepts.  The
   dirs are relative to _build/default/test, where dune runs the suite;
   a missing one fails the test rather than scanning nothing *)
let sources_mentioning ~exempt needle dirs =
  let offenders = ref [] in
  let rec walk dir =
    Array.iter
      (fun entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk path
        else if
          (Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli")
          && not (exempt path)
        then begin
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let body = really_input_string ic len in
          close_in ic;
          if contains ~sub:needle body then offenders := path :: !offenders
        end)
      (Sys.readdir dir)
  in
  List.iter
    (fun d ->
      if not (Sys.file_exists d && Sys.is_directory d) then
        Alcotest.failf "source directory %s not found from %s" d
          (Sys.getcwd ());
      walk d)
    dirs;
  !offenders

(* the needles are split so this file does not match itself *)
let test_no_direct_clock_reads () =
  (* the two timing authorities *)
  let exempt path =
    contains ~sub:"lib/engine/" path || contains ~sub:"lib/obs/" path
  in
  Alcotest.(check (list string))
    "no wall-clock reads outside lib/engine and lib/obs" []
    (sources_mentioning ~exempt ("Unix.get" ^ "timeofday")
       [ "../lib"; "../bin"; "../bench"; "../examples" ])

let test_one_domain_spawner () =
  (* every multi-domain layer runs on the work-stealing scheduler, so a
     second pool cannot creep back in beside it *)
  let exempt path = Filename.check_suffix path "lib/engine/scheduler.ml" in
  Alcotest.(check (list string))
    "Domain.spawn only in lib/engine/scheduler.ml" []
    (sources_mentioning ~exempt ("Domain." ^ "spawn") [ "../lib"; "../bin" ])

let test_no_solver_owns_a_pool () =
  (* a solve forks onto the scheduler its budget carries; only the
     orchestrators that size a pool to their members create one *)
  let owners =
    [ "lib/corpus/sweep.ml"; "lib/parallel/portfolio.ml"; "lib/server/jobs.ml" ]
  in
  let exempt path = List.exists (Filename.check_suffix path) owners in
  List.iter
    (fun needle ->
      Alcotest.(check (list string))
        (needle ^ " only in " ^ String.concat ", " owners) []
        (sources_mentioning ~exempt needle [ "../lib" ]
        |> List.filter (fun p -> Filename.check_suffix p ".ml")))
    [ "Scheduler.with" ^ "_scheduler"; "Scheduler.cre" ^ "ate" ]

let test_one_fork_rule () =
  (* a solve leaves its domain only through Step.run_all, which keeps
     a sliced solve inline; colexec takes a scheduler, not a budget *)
  let only files needle =
    let exempt path = List.exists (Filename.check_suffix path) files in
    Alcotest.(check (list string))
      (needle ^ " only in " ^ String.concat ", " files) []
      (sources_mentioning ~exempt needle [ "../lib" ])
  in
  List.iter
    (only [ "lib/engine/step.ml"; "lib/query/colexec.ml" ])
    [ "Scheduler.run" ^ "_all"; "Sched.run" ^ "_all" ];
  List.iter
    (only [ "lib/engine/step.ml"; "lib/engine/budget.ml" ])
    [ "Budget.in" ^ "_slice"; "unsl" ^ "iced" ]

let test_one_solver_registrar () =
  (* which solvers exist is decided in one place, so no front door can
     see a subset of the table *)
  let exempt path = Filename.check_suffix path "lib/parallel/registry.ml" in
  Alcotest.(check (list string))
    "Solver.register only in lib/parallel/registry.ml" []
    (sources_mentioning ~exempt ("Solver." ^ "register") [ "../lib"; "../bin" ]
    |> List.filter (fun p -> Filename.check_suffix p ".ml"));
  Alcotest.(check (list string))
    "no aliased S.register under lib/ and bin/" []
    (sources_mentioning ~exempt:(fun _ -> false) ("S." ^ "register")
       [ "../lib"; "../bin" ])

let test_one_ordering_search () =
  (* tw, ghw and fhw differ only in their Bag_cost: one module walks
     the elimination-ordering tree, and HDA-star reuses its expansion
     step instead of a copy *)
  let exempt path =
    Filename.check_suffix path "lib/search/ordering_search.ml"
  in
  Alcotest.(check (list string))
    "Elim_graph.restore_last only in lib/search/ordering_search.ml" []
    (sources_mentioning ~exempt
       ("Elim_graph.restore" ^ "_last")
       [ "../lib/search"; "../lib/parallel" ]);
  (* ... and every search, HDA-star too, enters through its prologue *)
  List.iter
    (fun step ->
      Alcotest.(check (list string))
        (step ^ " only in lib/search/ordering_search.ml") []
        (sources_mentioning ~exempt step
           [ "../lib/search"; "../lib/parallel" ]))
    [ "C.prep" ^ "are"; "C.triv" ^ "ial"; "C.init" ^ "ial" ]

let test_one_join_kernel () =
  (* CSP relations are Qrelations joined by Colexec; a boxed-key hash
     join cannot creep back into the CSP layer beside it *)
  Alcotest.(check (list string))
    "no Hashtbl under lib/csp" []
    (sources_mentioning ~exempt:(fun _ -> false) ("Hash" ^ "tbl") [ "../lib/csp" ]);
  let exempt path = Filename.check_suffix path "lib/query/join_tree.ml" in
  Alcotest.(check (list string))
    "bottom_up_order defined only in lib/query/join_tree.ml" []
    (sources_mentioning ~exempt ("let bottom_up" ^ "_order") [ "../lib" ])

let test_one_budget_per_entry_point () =
  (* solver entry points take one running Budget.t, [?within]; a
     passive spec stays at orchestration boundaries such as the
     portfolio, and GA configs carry no limits of their own *)
  let interfaces paths = List.filter (fun p -> Filename.check_suffix p ".mli") paths in
  let exempt path = Filename.check_suffix path "lib/parallel/portfolio.mli" in
  List.iter
    (fun needle ->
      Alcotest.(check (list string))
        (needle ^ " in no solver interface") []
        (interfaces
           (sources_mentioning ~exempt needle
              [ "../lib/search"; "../lib/ga"; "../lib/parallel" ])))
    [ "?incumbent" ^ ":"; "?budget" ^ ":"; "?time_limit" ^ ":" ];
  List.iter
    (fun field ->
      Alcotest.(check (list string))
        (field ^ " in no lib/ga config") []
        (sources_mentioning ~exempt:(fun _ -> false) field [ "../lib/ga" ]))
    [ "time_limit" ^ " :"; "target" ^ " :" ]

let () =
  Alcotest.run "hd_engine"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "time" `Quick test_clock_time;
        ] );
      ( "budget",
        [
          Alcotest.test_case "starts on run" `Quick test_budget_starts_on_run;
          Alcotest.test_case "sub rollover" `Quick test_budget_sub_rollover;
          Alcotest.test_case "remaining clamped at 0" `Quick
            test_budget_remaining_clamped;
          Alcotest.test_case "sub owns its cancel flag" `Quick
            test_budget_sub_own_cancel_flag;
          Alcotest.test_case "max states" `Quick test_ticker_max_states;
          Alcotest.test_case "expired deadline" `Quick
            test_ticker_expired_deadline;
          Alcotest.test_case "cancellation counter" `Quick
            test_ticker_cancellation_counter;
          Alcotest.test_case "spec equation" `Quick test_spec_equation;
          Alcotest.test_case "scheduler inherited" `Quick
            test_budget_scheduler_inherited;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "path" `Quick test_split_path;
          Alcotest.test_case "cycle" `Quick test_split_cycle;
          Alcotest.test_case "two triangles" `Quick test_split_two_triangles;
          Alcotest.test_case "isolated vertices" `Quick test_split_isolated;
          Alcotest.test_case "vertex cover" `Quick test_split_covers_vertices;
        ] );
      ( "registry",
        [
          Alcotest.test_case "idempotent" `Quick test_registry_idempotent;
          Alcotest.test_case "unknown name" `Quick test_run_by_name_unknown;
          Alcotest.test_case "all solvers, tiny budget" `Slow
            test_all_solvers_sound_under_tiny_budget;
          Alcotest.test_case "budget adherence" `Slow
            test_registry_budget_adherence;
          Alcotest.test_case "capped A* exact only when true" `Quick
            test_capped_astar_exact_is_true;
          QCheck_alcotest.to_alcotest prop_cross_solver_bounds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "chain tw + counters" `Slow test_blocks_chain_tw;
          QCheck_alcotest.to_alcotest prop_blocks_equal_mono_tw;
          QCheck_alcotest.to_alcotest prop_blocks_equal_mono_ghw;
          Alcotest.test_case "parallel blocks byte-identical" `Slow
            test_blocks_parallel_identical;
          Alcotest.test_case "cancel isolation under scheduler" `Quick
            test_blocks_cancel_under_runner;
        ] );
      ( "step",
        [
          Alcotest.test_case "yield, park, resume" `Quick
            test_step_yields_then_finishes;
          Alcotest.test_case "parked time credited" `Quick
            test_step_credits_parked_time;
          Alcotest.test_case "cancel while parked" `Quick
            test_step_cancel_while_parked;
          Alcotest.test_case "slices a whole Engine.run" `Quick
            test_step_slices_whole_engine_run;
          Alcotest.test_case "slices blocks with a runner installed" `Quick
            test_step_slices_blocks_under_runner;
          Alcotest.test_case "slices HDA*'s inline worker" `Quick
            test_step_slices_hdastar_worker;
          Alcotest.test_case "slices HDA* with a runner installed" `Quick
            test_step_slices_hdastar_under_runner;
        ] );
      ( "local search",
        [
          Alcotest.test_case "clock starts at run" `Slow
            test_local_search_clock_starts_at_run;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "no direct clock reads" `Quick
            test_no_direct_clock_reads;
          Alcotest.test_case "one domain spawner" `Quick test_one_domain_spawner;
          Alcotest.test_case "no solver owns a pool" `Quick
            test_no_solver_owns_a_pool;
          Alcotest.test_case "one fork rule" `Quick test_one_fork_rule;
          Alcotest.test_case "one solver registrar" `Quick
            test_one_solver_registrar;
          Alcotest.test_case "one join kernel" `Quick test_one_join_kernel;
          Alcotest.test_case "one ordering search" `Quick
            test_one_ordering_search;
          Alcotest.test_case "one budget per entry point" `Quick
            test_one_budget_per_entry_point;
        ] );
    ]
