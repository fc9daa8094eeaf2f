module Graph = Hd_graph.Graph
module Bitset = Hd_graph.Bitset
module Incumbent = Hd_core.Incumbent
module Budget = Hd_engine.Budget
module Scheduler = Hd_engine.Scheduler
module Step = Hd_engine.Step
module Search_util = Hd_search.Search_util
module Bag_cost = Hd_search.Bag_cost
module Ordering_search = Hd_search.Ordering_search
module Pq = Hd_search.Pq
module Obs = Hd_obs.Obs

let c_messages = Obs.Counter.make "hdastar.messages"
let c_batches = Obs.Counter.make "hdastar.batches"
let c_ring_full = Obs.Counter.make "hdastar.ring_full"

let batch_size = 64
let ring_capacity = 256
let max_workers = 62 (* started-mask bits *)

type 'node shared = {
  w : int;
  inc : Incumbent.t;
  budget : Budget.t;
  rings : 'node array Ring.t array array;  (* rings.(src).(dst) *)
  in_flight : int Atomic.t;
  idlers : int Atomic.t;
  started : int Atomic.t;  (* bitmask of live workers *)
  activity : int Atomic.t;
  halt : bool Atomic.t;
  stats : (int * int) array;  (* per-worker (visited, generated) *)
}

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

(* the k-th set bit of [mask] *)
let nth_member mask k =
  let rec go m i k =
    if m land 1 = 1 then if k = 0 then i else go (m lsr 1) (i + 1) (k - 1)
    else go (m lsr 1) (i + 1) k
  in
  go mask 0 k

(* All-idle termination: declare the frontier exhausted only when every
   live worker is registered idle, no state is in flight, and nothing
   happened during the check.  Every leave-idle and every expansion
   bumps [activity] first, so any worker acquiring work inside the
   check window invalidates it (see docs/PARALLELISM.md). *)
let exhausted sh =
  let a1 = Atomic.get sh.activity in
  let live = popcount (Atomic.get sh.started) in
  Atomic.get sh.idlers = live
  && Atomic.get sh.in_flight = 0
  && Atomic.get sh.idlers = live
  && Atomic.get sh.activity = a1

(* The distributed search over any bag cost.  Its result is read off
   the shared int incumbent, so a fractional cost would report ceilings;
   only treewidth and ghw are instantiated. *)
module Make (C : Bag_cost.S) = struct
  module Search = Ordering_search.Make (C)

  let run_worker sh ~me ~(st : Search.start) ~seed ~root =
    let n = Graph.n (C.graph st.problem) in
    (* worker 0 draws what the sequential A* would *)
    let rng =
      if me = 0 then st.rng else Random.State.make [| seed + (me * 0x9e37) |]
    in
    let tk = Budget.ticker sh.budget in
    let s = Search.searcher { st with ticker = tk; rng } in
    let pq = Pq.create ~compare:Search.compare_nodes ~dummy:root in
    let seen : (Bitset.t, C.t) Hashtbl.t = Hashtbl.create 64 in
    let out = Array.make sh.w [] in
    let out_n = Array.make sh.w 0 in
    let idle = ref false in
    let empty_rounds = ref 0 in
    let leave_idle () =
      if !idle then begin
        Atomic.incr sh.activity;
        Atomic.decr sh.idlers;
        idle := false
      end;
      empty_rounds := 0
    in
    let insert key (node : Search.node) =
      match Hashtbl.find_opt seen key with
      | Some g_seen when C.compare g_seen node.g <= 0 ->
          Obs.Counter.incr Search_util.c_duplicates
      | _ ->
          Hashtbl.replace seen key node.g;
          Pq.push pq node
    in
    (* states that arrived, or could not leave: no longer in flight *)
    let take batch =
      Array.iter
        (fun (nd : Search.node) ->
          insert (Bitset.of_list n nd.rpath) nd;
          Atomic.decr sh.in_flight)
        batch
    in
    let flush dst =
      if out_n.(dst) > 0 then begin
        let batch = Array.of_list (List.rev out.(dst)) in
        out.(dst) <- [];
        out_n.(dst) <- 0;
        if Ring.try_push sh.rings.(me).(dst) batch then begin
          Obs.Counter.incr c_batches;
          Obs.Counter.add c_messages (Array.length batch)
        end
        else begin
          (* receiver's inbox is full: keep the states; dedup precision
             degrades, soundness does not *)
          Obs.Counter.incr c_ring_full;
          take batch
        end
      end
    in
    let flush_all () =
      for dst = 0 to sh.w - 1 do
        if dst <> me then flush dst
      done
    in
    let route (node : Search.node) =
      let key = Bitset.of_list n node.rpath in
      let mask = Atomic.get sh.started in
      let dst = nth_member mask (Bitset.fnv_hash key mod popcount mask) in
      if dst = me then insert key node
      else begin
        Atomic.incr sh.in_flight;
        out.(dst) <- node :: out.(dst);
        out_n.(dst) <- out_n.(dst) + 1;
        if out_n.(dst) >= batch_size then flush dst
      end
    in
    let drain () =
      for src = 0 to sh.w - 1 do
        if src <> me then
          let rec go () =
            match Ring.try_pop sh.rings.(src).(me) with
            | None -> ()
            | Some batch ->
                leave_idle ();
                take batch;
                go ()
          in
          go ()
      done
    in
    (* go live (each worker adds its own bit once); worker 0 is the
       caller and always starts, so it owns the root: the search is
       live even while pool workers are busy elsewhere *)
    ignore (Atomic.fetch_and_add sh.started (1 lsl me));
    if me = 0 then take [| root |];
    let rec loop () =
      if not (Atomic.get sh.halt) then begin
        drain ();
        if Incumbent.closed sh.inc || Incumbent.cancelled sh.inc then
          Atomic.set sh.halt true
        else if
          (* an idle worker leaves its ticker alone: cheap empty spins
             would widen the polling stride until the first expansions
             after them overran the deadline *)
          (not (Pq.is_empty pq)) && Budget.out_of_budget tk
        then Atomic.set sh.halt true
        else begin
          (match Search.pop_live s pq with
          | Some node ->
              leave_idle ();
              Atomic.incr sh.activity;
              (* a lone worker's minimum f is the global one, a lower
                 bound that closes the search at a goal, as in the
                 sequential A*; among several, a goal only publishes
                 its bound, and pruning drains the other frontiers *)
              if sh.w = 1 then Search.raise_lb s node.f;
              ignore (Search.expand s node ~push:route);
              (* a budget stop inside [expand] drops the remaining
                 children: halt before this worker can go idle, or an
                 all-idle check would call the cut frontier exhausted *)
              if Budget.out_of_budget tk then Atomic.set sh.halt true
          | None ->
              flush_all ();
              if not !idle then begin
                idle := true;
                Atomic.incr sh.idlers
              end;
              if exhausted sh then begin
                (* the whole distributed frontier is drained: every
                   state below the incumbent ub was expanded or
                   dominated, so ub is the exact width; closing the
                   incumbent stops every worker *)
                ignore (Incumbent.raise_lb sh.inc (Incumbent.ub sh.inc));
                Atomic.set sh.halt true
              end
              else begin
                incr empty_rounds;
                if !empty_rounds > 10_000 then Unix.sleepf 0.0002
                else Domain.cpu_relax ()
              end);
          loop ()
        end
      end
    in
    loop ();
    leave_idle ();
    sh.stats.(me) <- (Budget.visited tk, Budget.generated tk)

  let span = "hdastar.solve_" ^ C.name

  let solve ?within ~seed input =
    Obs.with_span span @@ fun () ->
    let visited = ref 0 and generated = ref 0 in
    let r =
      Search.run ?within ~seed input @@ fun st ->
      (* the budget's scheduler, if any, lends its domains; without one
         the lone worker runs inline *)
      let sched = Budget.scheduler (Budget.budget st.ticker) in
      let w =
        match sched with
        | Some s -> min max_workers (Scheduler.size s + 1)
        | None -> 1
      in
      let sh =
        {
          w;
          inc = st.inc;
          (* one state cap for the whole search, not per worker *)
          budget = Budget.pooled (Budget.budget st.ticker);
          rings =
            Array.init w (fun _ ->
                Array.init w (fun _ -> Ring.create ring_capacity));
          (* the root counts as in flight until its owner queues it: a
             worker that comes online first must not find the frontier
             exhausted *)
          in_flight = Atomic.make 1;
          idlers = Atomic.make 0;
          started = Atomic.make 0;
          activity = Atomic.make 0;
          halt = Atomic.make false;
          stats = Array.make w (0, 0);
        }
      in
      let root = Search.root st.lb in
      let workers = List.init w (fun me () -> run_worker sh ~me ~st ~seed ~root) in
      (* workers forked onto executors must not park on a slice armed
         on another domain; the lone inline worker parks like any
         sequential search, so a server slice can yield it *)
      (match sched with
      | Some s ->
          Scheduler.run_all s (List.map (fun f () -> Step.unsliced f) workers)
      | None -> List.iter (fun f -> f ()) workers);
      visited := Array.fold_left (fun a (v, _) -> a + v) 0 sh.stats;
      generated := Array.fold_left (fun a (_, g) -> a + g) 0 sh.stats;
      (* the shared incumbent holds the search's verdict *)
      let lb, ub = Incumbent.bounds st.inc in
      ( (if Incumbent.closed st.inc then Exact (C.of_int ub)
         else Bounds { lb = C.of_int (min lb ub); ub = C.of_int ub }),
        Option.value (Incumbent.witness st.inc) ~default:(fst st.ub) )
    in
    (* the workers' tickers counted the states, not the prologue's *)
    { r with visited = !visited; generated = !generated }
end

module Tw = Make (Bag_cost.Tw)
module Ghw = Make (Bag_cost.Ghw)
