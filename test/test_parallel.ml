(* hd_parallel: incumbent sharing, the work-stealing scheduler,
   HDA-star, parallel SAIGA, and portfolio determinism across -j
   values. *)

module Graph = Hd_graph.Graph
module Incumbent = Hd_core.Incumbent
module Solver = Hd_engine.Solver
module Search = Hd_search.Ordering_search
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
(* Work-stealing deque                                                 *)
(* ------------------------------------------------------------------ *)

module Deque = Hd_engine.Deque
module Sched = Hd_engine.Scheduler
module Hdastar = Hd_parallel.Hdastar
module Obs = Hd_obs.Obs
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

let worker_starts () =
  Obs.Counter.value (Obs.Counter.make "parallel.worker_starts")

(* run [f] with Obs counting from zero *)
let counted f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable f

let test_sched_lazy_start () =
  counted @@ fun () ->
  let s = Sched.create ~workers:2 () in
  check_int "size is the slot count" 2 (Sched.size s);
  check_int "no domain before the first task" 0 (worker_starts ());
  Sched.shutdown s;
  check_int "none after an idle shutdown" 0 (worker_starts ())

(* how long a worker run dry spins for more work before it ends
   (scheduler.ml's [linger_s]) *)
let linger_s = 300e-6

(* An external caller forks and injects ({!Sched.resume} turns that
   finish at once) in bursts.  Each burst parks a blocker on one slot,
   which holds it until the burst's last task has run, and times that
   task's injection to land within 60 us of the moment the other
   slot's worker, run dry, stops lingering and ends: a worker that
   ended without looking again would strand it with both slots taken.
   Every task runs exactly once, and at most two domains other than
   the caller run tasks at once. *)
let test_sched_bursts () =
  counted @@ fun () ->
  let bursts = 1000 in
  let caller = Domain.self () in
  let on_workers = Atomic.make 0 and most = Atomic.make 0 in
  let task cell () =
    let away = Domain.self () <> caller in
    if away then begin
      let n = Atomic.fetch_and_add on_workers 1 + 1 in
      let rec raise_most () =
        let m = Atomic.get most in
        if n > m && not (Atomic.compare_and_set most m n) then raise_most ()
      in
      raise_most ()
    end;
    Atomic.incr cell;
    if away then Atomic.decr on_workers
  in
  let rng = Random.State.make [| 37 |] in
  let cells = ref [] in
  let fresh () =
    let c = Atomic.make 0 in
    cells := c :: !cells;
    c
  in
  let until ~what cond =
    let deadline = Unix.gettimeofday () +. 2.0 in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    if not (cond ()) then Alcotest.failf "%s never ran" what
  in
  Sched.with_scheduler ~workers:2 (fun s ->
      let inject c =
        Sched.resume s (fun () ->
            task c ();
            `Done)
      in
      for b = 1 to bursts do
        Sched.run_all s (List.init (2 + (b mod 3)) (fun _ -> task (fresh ())));
        let last = fresh () and first = fresh () and blocker = fresh () in
        Sched.resume s (fun () ->
            let deadline = Unix.gettimeofday () +. 2.0 in
            while Atomic.get last = 0 && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.0001
            done;
            task blocker ();
            `Done);
        inject first;
        until ~what:(Printf.sprintf "burst %d's first task" b) (fun () ->
            Atomic.get first = 1);
        let at =
          Unix.gettimeofday () +. linger_s +. (Random.State.float rng 120e-6 -. 60e-6)
        in
        while Unix.gettimeofday () < at do
          Domain.cpu_relax ()
        done;
        inject last;
        until ~what:(Printf.sprintf "burst %d's last task" b) (fun () ->
            Atomic.get last = 1 && Atomic.get blocker = 1)
      done);
  check "every task ran exactly once" true
    (List.for_all (fun c -> Atomic.get c = 1) !cells);
  check "at most two worker domains at once" true (Atomic.get most <= 2);
  check "workers ended and restarted between bursts" true
    (worker_starts () >= bursts / 4)

(* Workers that open spans and end leave no span tree behind: each
   ended domain's tree folds into the shared one, so over 1,000 bursts
   the live trees stay bounded by the two slots plus the caller, and
   the report still counts every task's span. *)
let test_sched_span_trees_fold () =
  counted @@ fun () ->
  let bursts = 1000 and per = 3 in
  let calls () =
    match Obs.Json.member "spans" (Obs.report ()) with
    | Some (Obs.Json.List spans) ->
        List.fold_left
          (fun acc -> function
            | Obs.Json.Obj f
              when List.assoc_opt "name" f = Some (Obs.Json.String "test.burst") -> (
                match List.assoc_opt "calls" f with
                | Some (Obs.Json.Int n) -> acc + n
                | _ -> acc)
            | _ -> acc)
          0 spans
    | _ -> Alcotest.fail "report has no spans list"
  in
  let most = ref 0 in
  Sched.with_scheduler ~workers:2 (fun s ->
      for _ = 1 to bursts do
        Sched.run_all s
          (List.init per (fun _ () ->
               Obs.with_span "test.burst" (fun () -> Unix.sleepf 0.00005)));
        Unix.sleepf (2. *. linger_s);
        most := max !most (Obs.span_domains ())
      done);
  check "workers ended and restarted" true (worker_starts () >= bursts / 4);
  check "live span trees within slots + caller" true (!most <= 3);
  check "no span tree left once the scheduler is down" true
    (Obs.span_domains () <= 1);
  check_int "every task's span reported" (bursts * per) (calls ())

(* shutdown waits for queued work and joins the domains running it;
   afterwards a submission raises *)
let test_sched_shutdown () =
  counted @@ fun () ->
  let s = Sched.create ~workers:2 () in
  let ran = Atomic.make 0 in
  for _ = 1 to 6 do
    Sched.resume s (fun () ->
        Unix.sleepf 0.003;
        Atomic.incr ran;
        `Done)
  done;
  Sched.shutdown s;
  check_int "queued tasks ran before shutdown returned" 6 (Atomic.get ran);
  check "a worker was started" true (worker_starts () >= 1);
  check "a submission after shutdown raises" true
    (try
       Sched.resume s (fun () -> `Done);
       false
     with Invalid_argument _ -> true);
  Sched.shutdown s

(* workers:0 is List.iter: the same effects in the same order, nested
   forks included, and no domain *)
let test_sched_sequential_is_iter () =
  counted @@ fun () ->
  let trace fork =
    let b = Buffer.create 64 in
    let rec tasks depth =
      List.init 3 (fun i () ->
          Buffer.add_string b (Printf.sprintf "(%d.%d" depth i);
          if depth < 2 then fork (tasks (depth + 1));
          Buffer.add_char b ')')
    in
    fork (tasks 0);
    Buffer.contents b
  in
  Sched.with_scheduler ~workers:0 (fun s ->
      check "run_all at 0 workers is List.iter" true
        (trace (Sched.run_all s) = trace (List.iter (fun f -> f ()))));
  check_int "no domain in sequential mode" 0 (worker_starts ())

(* ------------------------------------------------------------------ *)
(* Hash-distributed A-star                                             *)
(* ------------------------------------------------------------------ *)

let exact_of name (r : int Search.result) =
  match r.Search.outcome with
  | Search.Exact w -> w
  | Search.Bounds { lb; ub } ->
      Alcotest.failf "%s: expected exact, got [%d,%d]" name lb ub

(* a budget that lends HDA-star a 2-worker scheduler: three workers,
   which must trade states through their inboxes somewhere in [runs] *)
let on_two_workers label runs =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable (fun () ->
      Sched.with_scheduler ~workers:2 (fun s ->
          List.iter (fun f -> f (Budget.create ~scheduler:s ())) runs));
  check (label ^ " shipped states cross-worker") true
    (Obs.Counter.value (Obs.Counter.make "hdastar.messages") > 0)

(* the distributed search proves the same optimum as the sequential
   A*, without a scheduler (one worker inline, the deterministic mode)
   and with a 2-worker one, and its witness actually achieves the
   width.  The small instances can close before the scheduler's
   workers come online; queen5_5 runs long enough for them to trade *)
let test_hdastar_tw_matches_seq () =
  on_two_workers "tw j3"
    (List.map
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
         fun within ->
           check_int (name ^ " hdastar j3 width") expected
             (exact_of name (Hdastar.Tw.solve ~within ~seed:3 g)))
       [ "grid4"; "myciel3"; "grid5"; "queen5_5" ])

(* adder_15 closes at the root; csp-synth's grid2d_06 takes a few
   hundred states, enough for the three workers to trade some *)
let test_hdastar_ghw_matches_seq () =
  let grid2d_06 =
    Hd_hypergraph.Hg_format.parse_string
      (List.assoc "grid2d_06.hg"
         (List.assoc "csp-synth" (Hd_instances.Mini_corpus.collections ())))
  in
  on_two_workers "ghw j3"
    (List.map
       (fun (name, h, width) ->
         let expected = exact_of name (Search.Ghw.astar ~seed:5 h) in
         check_int (name ^ " seq ghw") width expected;
         check_int (name ^ " hdastar j1") expected
           (exact_of name (Hdastar.Ghw.solve ~seed:5 h));
         fun within ->
           check_int (name ^ " hdastar j3") expected
             (exact_of name (Hdastar.Ghw.solve ~within ~seed:5 h)))
       [ ("adder_15", hypergraph "adder_15", 2); ("grid2d_06", grid2d_06, 4) ])

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

(* members share one int incumbent, so a race of two measures would
   report the first finisher's width as every member's exact width
   (csp-synth adder_04, tw 4 and ghw 2, printed "bb-ghw 4 (exact)").
   The race refuses the mix, naming each member's kind, before any
   member runs *)
let test_portfolio_mixed_kinds () =
  let problem = Hd_engine.Solver.Hypergraph (hypergraph "adder_15") in
  List.iter
    (fun (names, mix) ->
      match Portfolio.solve_named ~names problem with
      | _ -> Alcotest.failf "%s: raced" (String.concat "," names)
      | exception Invalid_argument msg ->
          Alcotest.(check string) "message"
            ("Portfolio: a race computes one width, but its members mix " ^ mix)
            msg)
    [
      ([ "astar-tw"; "bb-ghw" ], "astar-tw (tw), bb-ghw (ghw)");
      ([ "bb-ghw"; "astar-tw" ], "bb-ghw (ghw), astar-tw (tw)");
    ]

(* ------------------------------------------------------------------ *)
(* Parallel SAIGA                                                      *)
(* ------------------------------------------------------------------ *)

module Saiga_ghw = Hd_ga.Saiga_ghw


let saiga_config n_islands =
  Saiga_ghw.default_config ~n_islands ~island_population:20 ~epoch_length:5
    ~max_epochs:8 ~seed:3 ()

(* [saiga ?workers n h] runs the one island driver, on a budget
   carrying a scheduler of [workers] workers when given *)
let saiga ?workers n_islands h =
  let run within = Saiga_ghw.run ~within (saiga_config n_islands) h in
  let r =
    match workers with
    | None -> run (Budget.create ())
    | Some workers ->
        Sched.with_scheduler ~workers (fun s ->
            run (Budget.create ~scheduler:s ()))
  in
  check "witness is a permutation" true
    (Hd_core.Ordering.is_permutation r.Saiga_ghw.best_individual);
  check_int "one parameter vector per island" n_islands
    (Array.length r.Saiga_ghw.final_params);
  r

(* every ordering of K6 has the full clique as a bag, covered by no
   fewer than 3 edges: ghw 3 whatever the islands' schedule *)
let saiga_k6 ?workers n_islands =
  let h = Hd_hypergraph.Hypergraph.of_graph (Graph.complete 6) in
  check_int "K6 ghw" 3 (saiga ?workers n_islands h).Saiga_ghw.best

(* the islands fork onto the budget's scheduler *)
let test_saiga_islands () = saiga_k6 ~workers:2 3

(* one island runs inline on the caller (no scheduler) *)
let test_saiga_single_island () = saiga_k6 1

(* an island's epoch reads only that island's state and the barrier
   runs on the caller, so with no deadline and no state cap the worker
   count cannot change the report.  On adder_15 the islands differ and
   migrate, so the barrier's orientation shows in the final params *)
let test_saiga_deterministic_across_workers () =
  List.iter
    (fun (name, h, migrates) ->
      let base = saiga 3 h in
      List.iter
        (fun workers ->
          Obs.enable ();
          Obs.reset ();
          let r =
            Fun.protect ~finally:Obs.disable (fun () -> saiga ~workers 3 h)
          in
          let label what = Printf.sprintf "%s %s at %d workers" name what workers in
          check (label "forked islands") true
            (Obs.Counter.value (Obs.Counter.make "parallel.tasks") >= 3);
          check_int (label "best") base.Saiga_ghw.best r.Saiga_ghw.best;
          check_int (label "evaluations") base.evaluations r.evaluations;
          check_int (label "epochs") base.epochs r.epochs;
          check (label "witness") true (base.best_individual = r.best_individual);
          check (label "final params") true (base.final_params = r.final_params);
          check (label "migrated") migrates
            (Obs.Counter.value (Obs.Counter.make "ga.migrations") > 0))
        [ 1; 3 ])
    [
      ("K6", Hd_hypergraph.Hypergraph.of_graph (Graph.complete 6), false);
      ("adder_15", hypergraph "adder_15", true);
    ]

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
          Alcotest.test_case "no domain before the first task" `Quick
            test_sched_lazy_start;
          Alcotest.test_case "bursts run every task once" `Quick
            test_sched_bursts;
          Alcotest.test_case "ended workers fold their span trees" `Quick
            test_sched_span_trees_fold;
          Alcotest.test_case "shutdown drains and joins" `Quick
            test_sched_shutdown;
          Alcotest.test_case "sequential mode is List.iter" `Quick
            test_sched_sequential_is_iter;
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
          Alcotest.test_case "mixed kinds refused" `Quick test_portfolio_mixed_kinds;
          Alcotest.test_case "member exception re-raises" `Quick
            test_portfolio_member_exception;
        ] );
      ( "saiga",
        [
          Alcotest.test_case "three islands on K6" `Quick test_saiga_islands;
          Alcotest.test_case "one island inline" `Quick
            test_saiga_single_island;
          Alcotest.test_case "deterministic across workers" `Quick
            test_saiga_deterministic_across_workers;
        ] );
    ]
