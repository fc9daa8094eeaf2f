(* hd_parallel: incumbent sharing, the SPSC ring, the work-stealing
   scheduler, parallel SAIGA, and portfolio determinism across -j
   values. *)

module Graph = Hd_graph.Graph
module Incumbent = Hd_core.Incumbent
module Solver = Hd_engine.Solver
module Search = Hd_search.Ordering_search
module Ring = Hd_parallel.Ring
module Portfolio = Hd_parallel.Portfolio

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let graph name =
  match Hd_instances.Graphs.by_name name with
  | Some g -> g
  | None -> Alcotest.failf "unknown graph instance %s" name

let hypergraph name =
  match Hd_instances.Hypergraphs.by_name name with
  | Some h -> h
  | None -> Alcotest.failf "unknown hypergraph instance %s" name

(* ------------------------------------------------------------------ *)
(* Incumbent                                                           *)
(* ------------------------------------------------------------------ *)

let test_incumbent_bounds () =
  let inc = Incumbent.create ~lb:2 ~ub:10 () in
  check_int "initial lb" 2 (Incumbent.lb inc);
  check_int "initial ub" 10 (Incumbent.ub inc);
  check "improving offer accepted" true (Incumbent.offer_ub inc 8);
  check "equal offer rejected" false (Incumbent.offer_ub inc 8);
  check "worse offer rejected" false (Incumbent.offer_ub inc 9);
  check "improving lb accepted" true (Incumbent.raise_lb inc 5);
  check "equal lb rejected" false (Incumbent.raise_lb inc 5);
  check "not closed at [5,8]" false (Incumbent.closed inc);
  check "close by ub" true (Incumbent.offer_ub inc 5);
  check "closed at [5,5]" true (Incumbent.closed inc);
  check "create rejects lb > ub" true
    (try
       ignore (Incumbent.create ~lb:3 ~ub:2 ());
       false
     with Invalid_argument _ -> true)

let test_incumbent_witness () =
  let inc = Incumbent.create () in
  let sigma = [| 3; 1; 2; 0 |] in
  check "offer with witness" true (Incumbent.offer_ub inc ~witness:sigma 7);
  sigma.(0) <- 99;
  (match Incumbent.witness inc with
  | Some w -> check_int "witness frozen at offer time" 3 w.(0)
  | None -> Alcotest.fail "witness lost");
  (* an improving offer without a witness keeps the previous one *)
  check "witness-less offer" true (Incumbent.offer_ub inc 6);
  check "previous witness retained" true (Incumbent.witness inc <> None)

let test_incumbent_cancel () =
  let inc = Incumbent.create () in
  check "fresh incumbent not cancelled" false (Incumbent.cancelled inc);
  Incumbent.cancel inc;
  check "cancelled after cancel" true (Incumbent.cancelled inc)

(* four domains hammer the same incumbent with interleaved offers; the
   final state must be exactly the best offer of each kind, with no
   torn lb/ub pair observable along the way *)
let test_incumbent_multicore () =
  let inc = Incumbent.create () in
  let torn = Atomic.make false in
  let worker _ () =
    for w = 1500 downto 1000 do
      ignore (Incumbent.offer_ub inc w);
      let lb, ub = Incumbent.bounds inc in
      if lb > ub then Atomic.set torn true
    done;
    for w = 500 to 999 do
      ignore (Incumbent.raise_lb inc w);
      let lb, ub = Incumbent.bounds inc in
      if lb > ub then Atomic.set torn true
    done
  in
  let domains = Array.init 4 (fun i -> Domain.spawn (worker i)) in
  Array.iter Domain.join domains;
  check_int "final ub is the best offer" 1000 (Incumbent.ub inc);
  check_int "final lb is the best raise" 999 (Incumbent.lb inc);
  check "no torn snapshot observed" false (Atomic.get torn)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_fifo () =
  let r = Ring.create 4 in
  check "fresh ring empty" true (Ring.is_empty r);
  check "pop on empty" true (Ring.try_pop r = None);
  for i = 1 to 4 do
    check "push while space" true (Ring.try_push r i)
  done;
  check "push on full drops" false (Ring.try_push r 5);
  check_int "length when full" 4 (Ring.length r);
  check "fifo order" true (Ring.try_pop r = Some 1);
  check "push after pop" true (Ring.try_push r 5);
  List.iter
    (fun expected -> check "fifo order" true (Ring.try_pop r = Some expected))
    [ 2; 3; 4; 5 ];
  check "drained" true (Ring.is_empty r)

let test_ring_capacity () =
  check_int "1 stays 1" 1 (Ring.capacity (Ring.create 1));
  check_int "3 rounds to 4" 4 (Ring.capacity (Ring.create 3));
  check_int "4 stays 4" 4 (Ring.capacity (Ring.create 4));
  check_int "5 rounds to 8" 8 (Ring.capacity (Ring.create 5));
  check "capacity 0 rejected" true
    (try
       ignore (Ring.create 0);
       false
     with Invalid_argument _ -> true)

(* one producer domain, consumer on the main domain: every element
   arrives exactly once and in order, across a ring much smaller than
   the stream *)
let test_ring_spsc_stream () =
  let n = 10_000 in
  let r = Ring.create 8 in
  let producer () =
    for i = 0 to n - 1 do
      while not (Ring.try_push r i) do
        Domain.cpu_relax ()
      done
    done
  in
  let d = Domain.spawn producer in
  let received = ref 0 in
  while !received < n do
    match Ring.try_pop r with
    | Some x ->
        check_int "in-order delivery" !received x;
        incr received
    | None -> Domain.cpu_relax ()
  done;
  Domain.join d;
  check "stream drained" true (Ring.is_empty r)

(* ------------------------------------------------------------------ *)
(* Work-stealing deque                                                 *)
(* ------------------------------------------------------------------ *)

module Deque = Hd_engine.Deque
module Sched = Hd_engine.Scheduler
module Hdastar = Hd_parallel.Hdastar
module Budget = Hd_engine.Budget

let test_deque_owner_order () =
  let d = Deque.create 8 in
  check "pop on empty" true (Deque.pop d = None);
  check "steal on empty" true (Deque.steal d = None);
  List.iter (fun i -> check "push ok" true (Deque.push d i = `Ok)) [ 1; 2; 3; 4 ];
  check_int "length" 4 (Deque.length d);
  check "owner pops LIFO" true (Deque.pop d = Some 4);
  check "thief steals FIFO" true (Deque.steal d = Some 1);
  check "steal next oldest" true (Deque.steal d = Some 2);
  check "pop the rest" true (Deque.pop d = Some 3);
  check "drained" true (Deque.pop d = None)

let test_deque_full () =
  let d = Deque.create 2 in
  check "push 1" true (Deque.push d 1 = `Ok);
  check "push 2" true (Deque.push d 2 = `Ok);
  check "push on full reports" true (Deque.push d 3 = `Full);
  check "pop frees a slot" true (Deque.pop d = Some 2);
  check "push after pop" true (Deque.push d 3 = `Ok);
  check "capacity 0 rejected" true
    (try
       ignore (Deque.create 0);
       false
     with Invalid_argument _ -> true)

(* the owner pushes, pops and overflows while three thieves hammer the
   top: every element must be consumed exactly once, whichever side
   wins each race *)
let test_deque_steal_hammer () =
  let n = 50_000 in
  let d = Deque.create 1024 in
  let seen = Array.init n (fun _ -> Atomic.make 0) in
  let consumed = Atomic.make 0 in
  let dup = Atomic.make false in
  let eat v =
    if Atomic.fetch_and_add seen.(v) 1 <> 0 then Atomic.set dup true;
    Atomic.incr consumed
  in
  let stop = Atomic.make false in
  let thief () =
    while not (Atomic.get stop) do
      match Deque.steal d with
      | Some v -> eat v
      | None -> Domain.cpu_relax ()
    done;
    let rec drain () =
      match Deque.steal d with
      | Some v ->
          eat v;
          drain ()
      | None -> ()
    in
    drain ()
  in
  let thieves = Array.init 3 (fun _ -> Domain.spawn thief) in
  for i = 0 to n - 1 do
    (match Deque.push d i with
    | `Ok -> ()
    | `Full -> (
        (* drain one slot, as the scheduler's injector overflow would *)
        (match Deque.pop d with Some v -> eat v | None -> ());
        match Deque.push d i with `Ok -> () | `Full -> eat i));
    if i land 7 = 0 then
      match Deque.pop d with Some v -> eat v | None -> ()
  done;
  let rec drain () =
    match Deque.pop d with
    | Some v ->
        eat v;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  check "no element consumed twice" false (Atomic.get dup);
  check_int "every element consumed exactly once" n (Atomic.get consumed)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let test_sched_sequential_inline () =
  Sched.with_scheduler ~workers:0 (fun s ->
      check_int "no workers" 0 (Sched.size s);
      let order = ref [] in
      Sched.run_all s (List.init 5 (fun i () -> order := i :: !order));
      check "workers:0 runs in list order" true
        (List.rev !order = [ 0; 1; 2; 3; 4 ]);
      let sq = Sched.map_array s (fun x -> x * x) (Array.init 10 Fun.id) in
      check "map_array preserves order" true
        (sq = Array.init 10 (fun i -> i * i)))

(* ISSUE acceptance: fork/join through the scheduler is deterministic —
   map_array at 0 workers and at 3 workers both agree with Array.map on
   arbitrary inputs *)
let test_sched_qcheck_determinism () =
  Sched.with_scheduler ~workers:3 (fun par ->
      Sched.with_scheduler ~workers:0 (fun seq ->
          let t =
            QCheck.Test.make ~count:50 ~name:"fork/join determinism"
              QCheck.(list small_int)
              (fun xs ->
                let arr = Array.of_list xs in
                let f x = (x * 31) lxor (x asr 2) in
                let expected = Array.map f arr in
                Sched.map_array seq f arr = expected
                && Sched.map_array par f arr = expected)
          in
          QCheck.Test.check_exn t))

(* nested run_all from inside tasks: the joining worker helps instead
   of deadlocking, and every leaf runs exactly once *)
let test_sched_nested_tree_sum () =
  Sched.with_scheduler ~workers:3 (fun s ->
      let total = Atomic.make 0 in
      let rec go lo hi =
        if hi - lo <= 16 then
          for i = lo to hi - 1 do
            ignore (Atomic.fetch_and_add total i)
          done
        else
          let mid = (lo + hi) / 2 in
          Sched.run_all s [ (fun () -> go lo mid); (fun () -> go mid hi) ]
      in
      go 0 10_000;
      check_int "nested run_all sums every leaf" (10_000 * 9_999 / 2)
        (Atomic.get total))

exception Task_boom of int

let test_sched_exceptions () =
  Sched.with_scheduler ~workers:2 (fun s ->
      let ran_b = Atomic.make false in
      check "first failing task in list order re-raised" true
        (try
           Sched.run_all s
             [
               (fun () -> raise (Task_boom 1));
               (fun () -> Atomic.set ran_b true);
               (fun () -> raise (Task_boom 3));
             ];
           false
         with
        | Task_boom 1 -> true
        | Task_boom _ -> false);
      check "siblings still ran" true (Atomic.get ran_b);
      (* the pool survives a failing batch *)
      let r = Sched.map_array s (fun x -> x + 1) [| 41 |] in
      check_int "scheduler survives the failure" 42 r.(0))

let test_sched_resume_turns () =
  Sched.with_scheduler ~workers:1 (fun s ->
      let turns = Atomic.make 0 in
      let finished = Atomic.make false in
      Sched.resume s (fun () ->
          if Atomic.fetch_and_add turns 1 < 4 then `Again
          else begin
            Atomic.set finished true;
            `Done
          end);
      let tries = ref 0 in
      while (not (Atomic.get finished)) && !tries < 5_000 do
        incr tries;
        Unix.sleepf 0.001
      done;
      check "resumable task completed" true (Atomic.get finished);
      check_int "ran once per turn" 5 (Atomic.get turns))

(* the PR 7 budget regression, now through the scheduler: cancelling
   one task's sub-budget must reach neither its sibling nor the
   parent *)
let test_sched_cancel_isolation () =
  Sched.with_scheduler ~workers:2 (fun s ->
      let parent = Budget.create () in
      let subs = Array.init 2 (fun _ -> Budget.sub ~stages:2 parent) in
      let sibling_survived = Atomic.make false in
      Sched.run_all s
        [
          (fun () -> Budget.cancel subs.(0));
          (fun () ->
            for _ = 1 to 1_000 do
              Domain.cpu_relax ()
            done;
            if not (Budget.cancelled subs.(1)) then
              Atomic.set sibling_survived true);
        ];
      check "cancelled sub is cancelled" true (Budget.cancelled subs.(0));
      check "sibling budget survives" true (Atomic.get sibling_survived);
      check "parent not cancelled" false (Budget.cancelled parent);
      (* and top-down still propagates: cancelling the parent reaches
         the surviving child *)
      Budget.cancel parent;
      check "parent cancel reaches children" true (Budget.cancelled subs.(1)))

(* ------------------------------------------------------------------ *)
(* Hash-distributed A-star                                             *)
(* ------------------------------------------------------------------ *)

let exact_of name (r : int Search.result) =
  match r.Search.outcome with
  | Search.Exact w -> w
  | Search.Bounds { lb; ub } ->
      Alcotest.failf "%s: expected exact, got [%d,%d]" name lb ub

(* a budget that lends HDA-star a 2-worker scheduler: three workers *)
let on_two_workers f =
  Sched.with_scheduler ~workers:2 (fun s -> f (Budget.create ~scheduler:s ()))

(* the distributed search proves the same optimum as the sequential
   A*, without a scheduler (one worker inline, the deterministic mode)
   and with a 2-worker one, and its witness actually achieves the
   width *)
let test_hdastar_tw_matches_seq () =
  List.iter
    (fun name ->
      let g = graph name in
      let expected = exact_of name (Search.Tw.astar ~seed:3 g) in
      (let r = Hdastar.Tw.solve ~seed:3 g in
       check_int (name ^ " hdastar j1 width") expected (exact_of name r);
       match r.Search.ordering with
       | Some sigma ->
           let ws = Hd_core.Eval.of_graph g in
           check_int
             (name ^ " witness achieves width")
             expected
             (Hd_core.Eval.tw_width ws sigma)
       | None -> Alcotest.failf "%s: no witness ordering" name);
      on_two_workers (fun within ->
          check_int (name ^ " hdastar j3 width") expected
            (exact_of name (Hdastar.Tw.solve ~within ~seed:3 g))))
    [ "grid4"; "myciel3"; "grid5" ]

let test_hdastar_ghw_matches_seq () =
  let h = hypergraph "adder_15" in
  let expected = exact_of "adder_15" (Search.Ghw.astar ~seed:5 h) in
  check_int "adder_15 seq ghw" 2 expected;
  check_int "adder_15 hdastar j1" expected
    (exact_of "adder_15" (Hdastar.Ghw.solve ~seed:5 h));
  on_two_workers (fun within ->
      check_int "adder_15 hdastar j3" expected
        (exact_of "adder_15" (Hdastar.Ghw.solve ~within ~seed:5 h)))

(* on an exhausted state budget the distributed search degrades to the
   incumbent bounds, like the sequential solver *)
let test_hdastar_budget_bounds () =
  let g = graph "queen5_5" in
  Sched.with_scheduler ~workers:2 (fun s ->
      let b = Budget.create ~max_states:50 ~scheduler:s () in
      let r = Hdastar.Tw.solve ~within:b ~seed:1 g in
      match r.Search.outcome with
      | Search.Bounds { lb; ub } ->
          check "bounds sane" true (lb <= ub);
          check "ub from a real ordering" true (ub <= 24)
      | Search.Exact _ -> Alcotest.fail "50 states cannot close queen5_5")

let test_par_solvers_registered () =
  Hd_parallel.Registry.ensure ();
  Hd_parallel.Registry.ensure ();
  let module S = Hd_engine.Solver in
  check "astar-tw-par registered" true (S.find "astar-tw-par" <> None);
  check "astar-ghw-par registered" true (S.find "astar-ghw-par" <> None);
  check "saiga-ghw-par registered" true (S.find "saiga-ghw-par" <> None)

(* without a scheduler in the budget the -par entries run one worker
   (or one island) on the calling domain: two runs agree in outcome,
   counts and witness, whatever the machine's core count *)
let test_par_entries_deterministic () =
  Hd_parallel.Registry.ensure ();
  let module S = Hd_engine.Solver in
  let p = S.Graph (graph "queen5_5") in
  List.iter
    (fun (name, within) ->
      let run () = Hd_engine.Engine.run_by_name ~seed:1 name (within ()) p in
      let a = run () and b = run () in
      check (name ^ " outcome") true (a.S.outcome = b.S.outcome);
      check_int (name ^ " visited") a.S.visited b.S.visited;
      check_int (name ^ " generated") a.S.generated b.S.generated;
      check (name ^ " ordering") true (a.S.ordering = b.S.ordering))
    [
      ("astar-tw-par", fun () -> Budget.create ());
      ("astar-ghw-par", fun () -> Budget.create ());
      ("saiga-ghw-par", fun () -> Budget.create ~max_states:3000 ());
    ]

(* ------------------------------------------------------------------ *)
(* Portfolio                                                           *)
(* ------------------------------------------------------------------ *)

let exact_width name (r : Portfolio.t) =
  match r.outcome with
  | Solver.Exact w -> w
  | Solver.Bounds { lb; ub } ->
      Alcotest.failf "%s: portfolio did not close, got [%d,%d]" name lb ub

(* ISSUE acceptance: with fixed seeds the portfolio reports the same
   width at -j 1, -j 2 and -j 8 — exact members prove the same optimum
   whatever the interleaving *)
let test_portfolio_determinism () =
  let budget = { Hd_engine.Budget.time_limit = Some 120.0; max_states = None } in
  List.iter
    (fun (name, expected) ->
      let g = graph name in
      let widths =
        List.map
          (fun jobs ->
            exact_width name (Portfolio.solve_tw ~jobs ~budget ~seed:42 g))
          [ 1; 2; 8 ]
      in
      List.iter
        (fun w -> check_int (name ^ " width equal across -j") expected w)
        widths)
    [ ("queen5_5", 18); ("myciel4", 10); ("grid4", 4) ]

let test_portfolio_report_shape () =
  let budget = { Hd_engine.Budget.time_limit = Some 60.0; max_states = None } in
  let r = Portfolio.solve_tw ~jobs:3 ~budget ~seed:7 (graph "grid4") in
  check_int "domains = members raced" 3 r.Portfolio.domains;
  check_int "member report per member" 3 (List.length r.Portfolio.members);
  check "winner recorded" true (r.Portfolio.winner <> None);
  check "witness ordering present" true (r.Portfolio.ordering <> None);
  match r.Portfolio.ordering with
  | Some sigma ->
      (* the witness must actually achieve the reported width *)
      let g = graph "grid4" in
      let ws = Hd_core.Eval.of_graph g in
      check_int "witness achieves width" (exact_width "grid4" r)
        (Hd_core.Eval.tw_width ws sigma)
  | None -> ()

let test_portfolio_ghw () =
  let budget = { Hd_engine.Budget.time_limit = Some 60.0; max_states = None } in
  let h = hypergraph "adder_15" in
  let r = Portfolio.solve_ghw ~jobs:2 ~budget ~seed:5 h in
  check_int "adder_15 ghw" 2 (exact_width "adder_15" r)

exception Member_boom

(* a member's exception re-raises through the race's run_all, but only
   once the other members have run to completion *)
let test_portfolio_member_exception () =
  let module S = Hd_engine.Solver in
  let reported = Atomic.make false in
  S.register
    { S.name = "test-boom"; kind = S.Tw; doc = "raises";
      run = (fun ?seed:_ _ _ -> raise Member_boom) };
  S.register
    { S.name = "test-report"; kind = S.Tw; doc = "reports [0,3]";
      run =
        (fun ?seed:_ _ _ ->
          Atomic.set reported true;
          { S.outcome = S.Bounds { lb = 0; ub = 3 }; visited = 0;
            generated = 0; elapsed = 0.0; ordering = None }) };
  check "member exception re-raised" true
    (try
       ignore
         (Portfolio.solve_named ~names:[ "test-boom"; "test-report" ]
            (S.Graph (graph "grid4")));
       false
     with Member_boom -> true);
  check "other member still reported" true (Atomic.get reported)

(* ------------------------------------------------------------------ *)
(* Parallel SAIGA                                                      *)
(* ------------------------------------------------------------------ *)

module Saiga_ghw = Hd_ga.Saiga_ghw

(* every ordering of K6 has the full clique as a bag, covered by no
   fewer than 3 edges: ghw 3 whatever the islands' schedule *)
let saiga_k6 n_islands =
  let h = Hd_hypergraph.Hypergraph.of_graph (Graph.complete 6) in
  let config =
    Saiga_ghw.default_config ~n_islands ~island_population:20 ~epoch_length:5
      ~max_epochs:8 ~seed:3 ()
  in
  let r = Hd_parallel.Saiga_par.run config h in
  check_int "K6 ghw" 3 r.Saiga_ghw.best;
  check "witness is a permutation" true
    (Hd_core.Ordering.is_permutation r.Saiga_ghw.best_individual);
  check_int "one parameter vector per island" n_islands
    (Array.length r.Saiga_ghw.final_params)

let test_saiga_par_islands () = saiga_k6 3

(* one island runs inline on the caller (a scheduler with no workers) *)
let test_saiga_par_single_island () = saiga_k6 1

let () =
  Alcotest.run "hd_parallel"
    [
      ( "incumbent",
        [
          Alcotest.test_case "bounds protocol" `Quick test_incumbent_bounds;
          Alcotest.test_case "witness freezing" `Quick test_incumbent_witness;
          Alcotest.test_case "cancellation" `Quick test_incumbent_cancel;
          Alcotest.test_case "multicore hammer" `Quick test_incumbent_multicore;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "capacity rounding" `Quick test_ring_capacity;
          Alcotest.test_case "spsc stream" `Quick test_ring_spsc_stream;
        ] );
      ( "deque",
        [
          Alcotest.test_case "owner order" `Quick test_deque_owner_order;
          Alcotest.test_case "full / overflow" `Quick test_deque_full;
          Alcotest.test_case "steal hammer" `Quick test_deque_steal_hammer;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "sequential inline mode" `Quick
            test_sched_sequential_inline;
          Alcotest.test_case "qcheck fork/join determinism" `Quick
            test_sched_qcheck_determinism;
          Alcotest.test_case "nested tree sum" `Quick test_sched_nested_tree_sum;
          Alcotest.test_case "exception re-raise" `Quick test_sched_exceptions;
          Alcotest.test_case "resumable turns" `Quick test_sched_resume_turns;
          Alcotest.test_case "cancel isolation" `Quick
            test_sched_cancel_isolation;
        ] );
      ( "hdastar",
        [
          Alcotest.test_case "tw matches sequential" `Slow
            test_hdastar_tw_matches_seq;
          Alcotest.test_case "ghw matches sequential" `Slow
            test_hdastar_ghw_matches_seq;
          Alcotest.test_case "budget degrades to bounds" `Quick
            test_hdastar_budget_bounds;
          Alcotest.test_case "par solvers registered" `Quick
            test_par_solvers_registered;
          Alcotest.test_case "par entries deterministic without a scheduler"
            `Slow test_par_entries_deterministic;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "determinism across -j" `Slow
            test_portfolio_determinism;
          Alcotest.test_case "report shape" `Quick test_portfolio_report_shape;
          Alcotest.test_case "ghw race" `Quick test_portfolio_ghw;
          Alcotest.test_case "member exception re-raises" `Quick
            test_portfolio_member_exception;
        ] );
      ( "saiga",
        [
          Alcotest.test_case "three islands on K6" `Quick test_saiga_par_islands;
          Alcotest.test_case "one island inline" `Quick
            test_saiga_par_single_island;
        ] );
    ]
