module Obs = Hd_obs.Obs
module Solver = Hd_engine.Solver
module Budget = Hd_engine.Budget
module Step = Hd_engine.Step
module Engine = Hd_engine.Engine
module Incumbent = Hd_core.Incumbent
module Scheduler = Hd_engine.Scheduler

let c_submitted = Obs.Counter.make "server.jobs_submitted"
let c_completed = Obs.Counter.make "server.jobs_completed"
let c_cancelled = Obs.Counter.make "server.jobs_cancelled"
let c_failed = Obs.Counter.make "server.jobs_failed"
let c_slices = Obs.Counter.make "server.slices"
let c_parks = Obs.Counter.make "server.parks"

let max_pending_events = 64

type status =
  | Queued
  | Running
  | Finished of Solver.result
  | Cancelled of Solver.result option
  | Failed of string

type job = {
  id : int;
  label : string option;
  solver : Solver.t;
  signature : Signature.t;
  inc : Incumbent.t;
  budget : Budget.t;
  step : Solver.result Step.t option;  (* [None] for cache-served jobs *)
  cached : bool;
  store_in_cache : bool;
  mutable status : status;
  mutable cancel_requested : bool;
  mutable nslices : int;
  mutable events : Obs.Json.t list;  (* newest first, capped *)
  mutable n_events : int;
}

type t = {
  sched : Scheduler.t;
  cache : Cache.t;
  slice : float;
  m : Mutex.t;
  jobs : (int, job) Hashtbl.t;  (* live jobs: not yet read terminal *)
  mutable next_id : int;
  mutable retired : int;
  mutable stopping : bool;
}

type snapshot = {
  id : int;
  label : string option;
  state : string;
  cached : bool;
  slices : int;
  elapsed : float;
  lb : int;
  ub : int;
  result : Solver.result option;
  error : string option;
  events : Obs.Json.t list;  (* oldest first; drained by the read *)
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* --- snapshots (caller holds the lock) ---------------------------- *)

let state_of (job : job) =
  match job.status with
  | Finished _ -> "done"
  | Cancelled _ -> "cancelled"
  | Failed _ -> "failed"
  | Queued | Running ->
      if job.cancel_requested then "cancelling"
      else if job.nslices = 0 then "queued"
      else "running"

let terminal (job : job) =
  match job.status with
  | Finished _ | Cancelled _ | Failed _ -> true
  | Queued | Running -> false

let snapshot_locked (job : job) : snapshot =
  let result =
    match job.status with
    | Finished r | Cancelled (Some r) -> Some r
    | Cancelled None | Failed _ | Queued | Running -> None
  in
  let lb, ub =
    match result with
    | Some r -> Solver.bounds_of r.Solver.outcome
    | None -> Incumbent.bounds job.inc
  in
  let events = List.rev job.events in
  job.events <- [];
  job.n_events <- 0;
  {
    id = job.id;
    label = job.label;
    state = state_of job;
    cached = job.cached;
    slices = job.nslices;
    elapsed = Budget.elapsed job.budget;
    lb;
    ub;
    result;
    error = (match job.status with Failed msg -> Some msg | _ -> None);
    events;
  }

let is_terminal (s : snapshot) =
  match s.state with "done" | "cancelled" | "failed" -> true | _ -> false

(* a job is retired once a caller has been handed its terminal
   snapshot: nobody can ask for anything new about it *)
let read_locked t (job : job) =
  let s = snapshot_locked job in
  if terminal job then begin
    Hashtbl.remove t.jobs job.id;
    t.retired <- t.retired + 1
  end;
  s

let find_locked t id =
  match Hashtbl.find_opt t.jobs id with
  | Some job -> Ok job
  | None when id >= 0 && id < t.next_id ->
      Error (Printf.sprintf "job %d retired" id)
  | None -> Error (Printf.sprintf "unknown job %d" id)

let push_event (job : job) ev =
  job.events <- ev :: job.events;
  job.n_events <- job.n_events + 1;
  if job.n_events > max_pending_events then begin
    (* drop the oldest pending event; poll clients see a gap, never
       unbounded growth *)
    job.events <- List.filteri (fun i _ -> i < max_pending_events) job.events;
    job.n_events <- max_pending_events
  end

(* --- the worker loop ---------------------------------------------- *)

let slice_event (job : job) =
  let lb, ub = Incumbent.bounds job.inc in
  Obs.Json.Obj
    [
      ("job", Obs.Json.Int job.id);
      ("slice", Obs.Json.Int job.nslices);
      ("state", Obs.Json.String (state_of job));
      ("elapsed", Obs.Json.Float (Budget.elapsed job.budget));
      ("lb", Obs.Json.Int lb);
      ("ub", Obs.Json.Int (if ub = max_int then -1 else ub));
    ]

let finish_locked t job (r : Solver.result) =
  let exact = match r.Solver.outcome with
    | Solver.Exact _ -> true
    | Solver.Bounds _ -> false
  in
  if job.cancel_requested && not exact then begin
    job.status <- Cancelled (Some r);
    Obs.Counter.incr c_cancelled
  end
  else begin
    job.status <- Finished r;
    Obs.Counter.incr c_completed
  end;
  (* an exact answer is worth caching even if a cancel raced it *)
  if job.store_in_cache && exact then
    Cache.store t.cache ~kind:job.solver.Solver.kind job.signature
      {
        Cache.solver = job.solver.Solver.name;
        kind = job.solver.Solver.kind;
        outcome = r.Solver.outcome;
        ordering =
          Option.map (Signature.to_canonical job.signature) r.Solver.ordering;
        visited = r.Solver.visited;
        generated = r.Solver.generated;
        elapsed = Budget.elapsed job.budget;
      }

(* one scheduling turn = one slice of one job; returning [`Again]
   re-enqueues the job at the back of the scheduler's injector FIFO, so
   in-flight jobs round-robin exactly as the old dedicated worker loops
   did, but on the same domains every other parallel layer uses *)
let turn t (job : job) =
  let step = Option.get job.step in
  locked t (fun () -> job.status <- Running);
  let verdict =
    try `Out (Step.slice step ~seconds:t.slice)
    with e -> `Err (Printexc.to_string e)
  in
  Obs.Counter.incr c_slices;
  let again, ev =
    locked t (fun () ->
        job.nslices <- job.nslices + 1;
        let again =
          match verdict with
          | `Out (Step.Done r) ->
              finish_locked t job r;
              false
          | `Out Step.Yielded ->
              Obs.Counter.incr c_parks;
              job.status <- Queued;
              true
          | `Err msg ->
              job.status <- Failed msg;
              Obs.Counter.incr c_failed;
              false
        in
        let ev = slice_event job in
        push_event job ev;
        (again, ev))
  in
  Obs.Tap.emit "server.slice" ev;
  if again then `Again else `Done

(* --- lifecycle ----------------------------------------------------- *)

let create ?(workers = 2) ?(slice = 0.05) ~cache () =
  if workers < 1 then invalid_arg "Jobs.create: workers must be >= 1";
  if not (Float.is_finite slice) || slice < 0.0 then
    invalid_arg "Jobs.create: slice must be a non-negative finite float";
  {
    sched = Scheduler.create ~workers ();
    cache;
    slice;
    m = Mutex.create ();
    jobs = Hashtbl.create 32;
    next_id = 0;
    retired = 0;
    stopping = false;
  }

let scheduler t = t.sched

let submit t ~solver ~spec ?seed ?label ?(use_cache = true) ~signature problem =
  Obs.Counter.incr c_submitted;
  locked t (fun () ->
      if t.stopping then invalid_arg "Jobs.submit: scheduler is shut down";
      let id = t.next_id in
      t.next_id <- id + 1;
      let cached_entry =
        if use_cache then Cache.find t.cache ~kind:solver.Solver.kind signature
        else None
      in
      let job =
        match cached_entry with
        | Some e ->
            let r =
              {
                Solver.outcome = e.Cache.outcome;
                visited = e.Cache.visited;
                generated = e.Cache.generated;
                elapsed = e.Cache.elapsed;
                ordering =
                  Option.map (Signature.of_canonical signature) e.Cache.ordering;
              }
            in
            Obs.Counter.incr c_completed;
            {
              id;
              label;
              solver;
              signature;
              inc = Incumbent.create ();
              budget = Budget.create ();
              step = None;
              cached = true;
              store_in_cache = false;
              status = Finished r;
              cancel_requested = false;
              nslices = 0;
              events = [];
              n_events = 0;
            }
        | None ->
            let inc = Incumbent.create () in
            let budget = Budget.of_spec ~incumbent:inc spec in
            let step =
              Step.make budget (fun () -> Engine.run ?seed solver budget problem)
            in
            {
              id;
              label;
              solver;
              signature;
              inc;
              budget;
              step = Some step;
              cached = false;
              store_in_cache = use_cache;
              status = Queued;
              cancel_requested = false;
              nslices = 0;
              events = [];
              n_events = 0;
            }
      in
      (* a cache-served job is terminal in this very reply, so it is
         retired without ever being stored *)
      if not (terminal job) then begin
        Hashtbl.replace t.jobs id job;
        Scheduler.resume t.sched (fun () -> turn t job)
      end;
      read_locked t job)

let poll t id = locked t (fun () -> Result.map (read_locked t) (find_locked t id))

let cancel t id =
  locked t (fun () ->
      Result.map
        (fun job ->
          if not (terminal job) then begin
            job.cancel_requested <- true;
            (* the budget trips the incumbent too; the next ticker poll
               inside the running slice sees it and returns fast *)
            Budget.cancel job.budget
          end;
          read_locked t job)
        (find_locked t id))

(* Waiting polls rather than subscribes: terminal transitions happen on
   worker domains and a poll every 2ms is far below slice granularity. *)
let wait t id ~timeout =
  let deadline = Hd_engine.Clock.now () +. timeout in
  let rec go () =
    match poll t id with
    | Ok s when (not (is_terminal s)) && Hd_engine.Clock.now () < deadline ->
        Unix.sleepf 0.002;
        go ()
    | r -> r
  in
  go ()

(* submit-and-wait for batch drivers (the bulk op): one call resolves
   a decomposition for an instance, serving isomorphic repeats from
   the cache.  Returns the terminal snapshot plus the witness ordering
   already mapped into the submitting instance's vertex ids. *)
let resolve_ordering t ~solver ~spec ?seed ?label ?(use_cache = true)
    ~timeout ~signature problem =
  let snap =
    submit t ~solver ~spec ?seed ?label ~use_cache ~signature problem
  in
  let snap =
    if is_terminal snap then snap
    else match wait t snap.id ~timeout with Ok s -> s | Error _ -> snap
  in
  let ordering =
    match snap.result with Some r -> r.Solver.ordering | None -> None
  in
  (snap, ordering)

let stats t =
  locked t (fun () ->
      let queued = ref 0 and running = ref 0 and done_ = ref 0 in
      let cancelled = ref 0 and failed = ref 0 in
      Hashtbl.iter
        (fun _ job ->
          match job.status with
          | Queued -> incr queued
          | Running -> incr running
          | Finished _ -> incr done_
          | Cancelled _ -> incr cancelled
          | Failed _ -> incr failed)
        t.jobs;
      Obs.Json.Obj
        [
          ("submitted", Obs.Json.Int t.next_id);
          ("queued", Obs.Json.Int !queued);
          ("running", Obs.Json.Int !running);
          ("done", Obs.Json.Int !done_);
          ("cancelled", Obs.Json.Int !cancelled);
          ("failed", Obs.Json.Int !failed);
          ("retired", Obs.Json.Int t.retired);
          ("workers", Obs.Json.Int (Scheduler.size t.sched));
          ("slice", Obs.Json.Float t.slice);
        ])

let shutdown t =
  locked t (fun () ->
      if not t.stopping then begin
        t.stopping <- true;
        (* cancelled budgets make every parked job's next slice return
           fast, so the scheduler's drain-on-shutdown terminates
           promptly; re-injected turns keep running until they report
           [`Done], so no continuation is ever dropped *)
        Hashtbl.iter
          (fun _ job -> if not (terminal job) then Budget.cancel job.budget)
          t.jobs
      end);
  Scheduler.shutdown t.sched
