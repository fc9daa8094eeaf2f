module Obs = Hd_obs.Obs

let c_tasks = Obs.Counter.make "parallel.tasks"
let c_steals = Obs.Counter.make "parallel.steals"
let c_park_ns = Obs.Counter.make "parallel.park_ns"
let c_worker_starts = Obs.Counter.make "parallel.worker_starts"

type task = unit -> unit

type t = {
  deques : task Deque.t array;  (* one per worker slot *)
  busy : bool Atomic.t array;  (* slot [i] has a live worker *)
  (* the domain that last ran on each slot, kept until someone joins
     it: the next claimer of the slot, or [shutdown] *)
  domains : unit Domain.t option array;
  dom_m : Mutex.t;
  injector : task Queue.t;
  inj_m : Mutex.t;
  (* tasks pushed (injector or any deque) and not yet taken.  Raised
     before the push and lowered after the take, so it never reads
     below the number of tasks queued, and 0 means none is *)
  pending : int Atomic.t;
  park_m : Mutex.t;
  park_c : Condition.t;
  (* parking protocol (joiners only): a parker reads [wake_seq],
     rechecks for work, then waits only while the sequence is
     unchanged; every push and every join completion bumps it, so the
     recheck-then-wait window cannot lose a wakeup *)
  wake_seq : int Atomic.t;
  parked : int Atomic.t;
  mutable joined : bool;
}

(* which scheduler (if any) owns the calling domain, and as which
   worker slot; [==] identity keeps nested schedulers apart *)
let worker_key : (Obj.t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let self t =
  match Domain.DLS.get worker_key with
  | Some (s, i) when s == Obj.repr t -> Some i
  | _ -> None

let size t = Array.length t.deques

let warm t = Array.exists Atomic.get t.busy

let tap_event fields =
  if Obs.Tap.active () then
    Obs.Tap.emit "scheduler" (Obs.Json.Obj fields)

let wake t =
  Atomic.incr t.wake_seq;
  if Atomic.get t.parked > 0 then begin
    Mutex.lock t.park_m;
    Condition.broadcast t.park_c;
    Mutex.unlock t.park_m
  end

(* [has_more] is the parker's cheap recheck; [who] is the joiner's
   worker slot, or -1 for an external joiner *)
let park t ~who has_more =
  Atomic.incr t.parked;
  let seq = Atomic.get t.wake_seq in
  if not (has_more ()) then begin
    tap_event [ ("event", Obs.Json.String "park"); ("worker", Obs.Json.Int who) ];
    let t0 = Clock.now () in
    Mutex.lock t.park_m;
    if Atomic.get t.wake_seq = seq then Condition.wait t.park_c t.park_m;
    Mutex.unlock t.park_m;
    let ns = int_of_float ((Clock.now () -. t0) *. 1e9) in
    Obs.Counter.add c_park_ns (max 0 ns);
    tap_event
      [
        ("event", Obs.Json.String "resume");
        ("worker", Obs.Json.Int who);
        ("park_ns", Obs.Json.Int (max 0 ns));
      ]
  end;
  Atomic.decr t.parked

let taken t = function
  | Some _ as s ->
      Atomic.decr t.pending;
      s
  | None -> None

let pop_injector t =
  Mutex.lock t.inj_m;
  let r = if Queue.is_empty t.injector then None else Some (Queue.pop t.injector) in
  Mutex.unlock t.inj_m;
  taken t r

let try_steal t ~except =
  let w = Array.length t.deques in
  let start = if except >= 0 then except + 1 else 0 in
  let rec go k =
    if k >= w then None
    else
      let v = (start + k) mod w in
      if v = except then go (k + 1)
      else
        match Deque.steal t.deques.(v) with
        | Some _ as s ->
            Obs.Counter.incr c_steals;
            taken t s
        | None -> go (k + 1)
  in
  go 0

let find_task t me =
  let own =
    match me with Some i -> taken t (Deque.pop t.deques.(i)) | None -> None
  in
  match own with
  | Some _ as s -> s
  | None -> (
      match pop_injector t with
      | Some _ as s -> s
      | None -> try_steal t ~except:(match me with Some i -> i | None -> -1))

let has_work t = Atomic.get t.pending > 0

let exec task =
  Obs.Counter.incr c_tasks;
  try task ()
  with e ->
    (* raw [resume] turns own their errors; [run_all]
       children catch before they reach here *)
    tap_event
      [
        ("event", Obs.Json.String "drop");
        ("error", Obs.Json.String (Printexc.to_string e));
      ]

(* A worker that finds no task spins for more work for at most
   [linger_s] before it ends, about what starting a worker again costs
   (a spawn and join of an empty domain: median 301 us over nine runs,
   docs/PERFORMANCE.md section 15).  So an idle spell costs at most
   twice what the best choice between spinning and ending would have
   cost, and forks that follow each other closely (SAIGA's epochs, a
   query's passes) keep one domain.  Spinning is not parking: the
   spinner polls, so a minor collection never waits to wake it. *)
let linger_s = 300e-6

(* spin until work is queued or [linger_s] has passed *)
let linger t =
  let until = Unix.gettimeofday () +. linger_s in
  let rec go () =
    has_work t
    || Unix.gettimeofday () < until
       && begin
            Domain.cpu_relax ();
            go ()
          end
  in
  go ()

(* A worker runs tasks until it finds none and has lingered, then
   gives its slot back and ends its domain; it never parks.  The exit
   cannot strand a task.  Atomics are sequentially consistent, so take
   a push of task x (raise [pending], push, then [start_workers]'s scan
   of [busy]) and a worker's exit (release [busy.(i)], then read
   [pending]).  If the read comes after the raise, it sees x counted
   unless x was already taken, and the worker reclaims its slot; if
   another claimer won the slot, that claimer starts a worker.  If the
   read comes before the raise, the release came before the pusher's
   scan, which then finds slot [i] free, or claimed by a worker whose
   own exit comes later and repeats this argument. *)
let rec worker_main t i =
  match find_task t (Some i) with
  | Some task ->
      exec task;
      worker_main t i
  | None when linger t -> worker_main t i
  | None ->
      Atomic.set t.busy.(i) false;
      if has_work t && Atomic.compare_and_set t.busy.(i) false true then
        worker_main t i

(* start a worker on slot [i], which the caller has just claimed.  The
   slot's previous domain has released it and is returning, so joining
   it first is brief and keeps at most one domain per slot. *)
let spawn t i =
  Mutex.lock t.dom_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.dom_m) @@ fun () ->
  Option.iter Domain.join t.domains.(i);
  t.domains.(i) <- None;
  match
    Domain.spawn (fun () ->
        Domain.DLS.set worker_key (Some (Obj.repr t, i));
        worker_main t i)
  with
  | d ->
      t.domains.(i) <- Some d;
      Obs.Counter.incr c_worker_starts
  | exception e ->
      Atomic.set t.busy.(i) false;
      raise e

(* after a push: start up to [k] workers on free slots while work is
   queued *)
let start_workers t k =
  let w = Array.length t.busy in
  let rec go i k =
    if i < w && k > 0 && has_work t then
      if (not (Atomic.get t.busy.(i))) && Atomic.compare_and_set t.busy.(i) false true
      then begin
        spawn t i;
        go (i + 1) (k - 1)
      end
      else go (i + 1) k
  in
  go 0 k

let create ~workers () =
  let workers = max 0 workers in
  {
    deques = Array.init workers (fun _ -> Deque.create 4096);
    busy = Array.init workers (fun _ -> Atomic.make false);
    domains = Array.make workers None;
    dom_m = Mutex.create ();
    injector = Queue.create ();
    inj_m = Mutex.create ();
    pending = Atomic.make 0;
    park_m = Mutex.create ();
    park_c = Condition.create ();
    wake_seq = Atomic.make 0;
    parked = Atomic.make 0;
    joined = false;
  }

let push_injector t task =
  Mutex.lock t.inj_m;
  Queue.push task t.injector;
  Mutex.unlock t.inj_m

(* queue [task]: on the calling worker's own deque when it has one,
   else on the injector.  [pending] rises first (see its field). *)
let push t me task =
  Atomic.incr t.pending;
  (match me with
  | Some w -> (
      match Deque.push t.deques.(w) task with
      | `Ok -> ()
      | `Full -> push_injector t task)
  | None -> push_injector t task);
  wake t

(* sequential mode (no worker slots): run submissions inline so
   nothing is ever stranded in a queue no one drains *)
let sequential t = Array.length t.deques = 0

let inject t task =
  if t.joined then invalid_arg "Scheduler.inject: scheduler is shut down";
  if sequential t then exec task
  else begin
    push t None task;
    start_workers t 1
  end

let rec resume t turn =
  if t.joined then invalid_arg "Scheduler.resume: scheduler is shut down";
  if sequential t then begin
    Obs.Counter.incr c_tasks;
    match turn () with `Again -> resume t turn | `Done -> ()
  end
  else
    inject t (fun () ->
        match turn () with `Again -> resume t turn | `Done -> ())

let run_all t fns =
  match fns with
  | [] -> ()
  | [ f ] -> f ()
  | fns when sequential t -> List.iter (fun f -> f ()) fns
  | fns ->
      let n = List.length fns in
      let errs = Array.make n None in
      let remaining = Atomic.make n in
      let me = self t in
      let child i f () =
        (try f () with e -> errs.(i) <- Some e);
        if Atomic.fetch_and_add remaining (-1) = 1 then wake t
      in
      List.iteri (fun i f -> push t me (child i f)) fns;
      (* the joiner runs one child itself *)
      start_workers t (n - 1);
      let finished () = Atomic.get remaining = 0 in
      (* the joiner helps: children first (own deque), then anything
         stealable, parking only when the whole pool is quiet *)
      let rec help () =
        if not (finished ()) then begin
          (match find_task t me with
          | Some task -> exec task
          | None ->
              park t ~who:(match me with Some w -> w | None -> -1)
                (fun () -> finished () || has_work t));
          help ()
        end
      in
      help ();
      Array.iter (function Some e -> raise e | None -> ()) errs

let map_array t f arr =
  let n = Array.length arr in
  let out = Array.make n None in
  run_all t (List.init n (fun i () -> out.(i) <- Some (f arr.(i))));
  Array.map (function Some v -> v | None -> assert false) out

(* A live worker runs until nothing is queued, so joining every domain
   drains the queues.  A task may start more domains meanwhile; each is
   recorded, under [dom_m], before the domain that started it can end,
   so taking the recorded domains until none is left joins them all. *)
let shutdown t =
  if not t.joined then begin
    let rec drain () =
      Mutex.lock t.dom_m;
      let ds = List.filter_map Fun.id (Array.to_list t.domains) in
      Array.fill t.domains 0 (Array.length t.domains) None;
      Mutex.unlock t.dom_m;
      if ds <> [] then begin
        List.iter Domain.join ds;
        drain ()
      end
    in
    drain ();
    t.joined <- true
  end

let with_scheduler ~workers f =
  let t = create ~workers () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
