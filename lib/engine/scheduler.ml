module Obs = Hd_obs.Obs

let c_tasks = Obs.Counter.make "parallel.tasks"
let c_steals = Obs.Counter.make "parallel.steals"
let c_park_ns = Obs.Counter.make "parallel.park_ns"

type task = unit -> unit

type t = {
  deques : task Deque.t array;  (* one per worker domain *)
  injector : task Queue.t;
  inj_m : Mutex.t;
  park_m : Mutex.t;
  park_c : Condition.t;
  (* parking protocol: a parker reads [wake_seq], rechecks for work,
     then waits only while the sequence is unchanged; every push and
     every join completion bumps it, so the recheck-then-wait window
     cannot lose a wakeup *)
  wake_seq : int Atomic.t;
  parked : int Atomic.t;
  stopping : bool Atomic.t;
  mutable domains : unit Domain.t array;
  mutable joined : bool;
}

(* which scheduler (if any) owns the calling domain, and as which
   worker index; [==] identity keeps nested schedulers apart *)
let worker_key : (Obj.t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let self t =
  match Domain.DLS.get worker_key with
  | Some (s, i) when s == Obj.repr t -> Some i
  | _ -> None

let size t = Array.length t.deques

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

(* [has_more] is the parker's cheap recheck; [who] is a worker index,
   or -1 for an external joiner helping a [run_all] *)
let park t ~who has_more =
  Atomic.incr t.parked;
  let seq = Atomic.get t.wake_seq in
  if not (has_more ()) && not (Atomic.get t.stopping) then begin
    tap_event [ ("event", Obs.Json.String "park"); ("worker", Obs.Json.Int who) ];
    let t0 = Clock.now () in
    Mutex.lock t.park_m;
    if Atomic.get t.wake_seq = seq && not (Atomic.get t.stopping) then
      Condition.wait t.park_c t.park_m;
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

let pop_injector t =
  Mutex.lock t.inj_m;
  let r = if Queue.is_empty t.injector then None else Some (Queue.pop t.injector) in
  Mutex.unlock t.inj_m;
  r

let injector_nonempty t = not (Queue.is_empty t.injector)

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
            s
        | None -> go (k + 1)
  in
  go 0

let find_task t me =
  let own =
    match me with Some i -> Deque.pop t.deques.(i) | None -> None
  in
  match own with
  | Some _ as s -> s
  | None -> (
      match pop_injector t with
      | Some _ as s -> s
      | None -> try_steal t ~except:(match me with Some i -> i | None -> -1))

let has_work t =
  injector_nonempty t
  || Array.exists (fun d -> Deque.length d > 0) t.deques

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

let rec worker_main t me =
  match find_task t (Some me) with
  | Some task ->
      exec task;
      worker_main t me
  | None ->
      if not (Atomic.get t.stopping) then begin
        park t ~who:me (fun () -> has_work t);
        worker_main t me
      end

let create ~workers () =
  let workers = max 0 workers in
  let t =
    {
      deques = Array.init workers (fun _ -> Deque.create 4096);
      injector = Queue.create ();
      inj_m = Mutex.create ();
      park_m = Mutex.create ();
      park_c = Condition.create ();
      wake_seq = Atomic.make 0;
      parked = Atomic.make 0;
      stopping = Atomic.make false;
      domains = [||];
      joined = false;
    }
  in
  t.domains <-
    Array.init workers (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set worker_key (Some (Obj.repr t, i));
            worker_main t i));
  t

let push_injector t task =
  Mutex.lock t.inj_m;
  Queue.push task t.injector;
  Mutex.unlock t.inj_m

(* sequential mode (no worker domains): run submissions inline so
   nothing is ever stranded in a queue no one drains *)
let sequential t = Array.length t.deques = 0

let inject t task =
  if t.joined then invalid_arg "Scheduler.inject: scheduler is shut down";
  if sequential t then exec task
  else begin
    push_injector t task;
    wake t
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
      List.iteri
        (fun i f ->
          let task = child i f in
          (match me with
          | Some w -> (
              match Deque.push t.deques.(w) task with
              | `Ok -> ()
              | `Full -> push_injector t task)
          | None -> push_injector t task);
          wake t)
        fns;
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

let shutdown t =
  if not t.joined then begin
    Atomic.set t.stopping true;
    wake t;
    (* workers drain the injector and every deque before exiting *)
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    t.joined <- true
  end

let with_scheduler ~workers f =
  let t = create ~workers () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

