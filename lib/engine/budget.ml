module Incumbent = Hd_core.Incumbent
module Obs = Hd_obs.Obs

(* cooperative cancellations that actually stopped a solver; see
   docs/OBSERVABILITY.md *)
let c_cancellations = Obs.Counter.make "engine.cancellations"

type spec = { time_limit : float option; max_states : int option }

type t = {
  time_limit : float option;
  max_states : int option;
  flag : bool Atomic.t;
  (* sub-budgets carry their own flag and chain to the parent here:
     cancelling one per-block sub-budget must not cancel the parent or
     any sibling, while a parent cancel still reaches every child *)
  parent : t option;
  inc : Incumbent.t option;
  (* the scheduler this run may fork onto; subs and pooled views
     inherit it, so blocks within blocks share one set of domains *)
  sched : Scheduler.t option;
  (* generated states summed over every ticker of a [pooled] budget;
     [None]: each ticker is capped on its own count *)
  pool : int Atomic.t option;
  (* nan until the first start/ticker; CAS so the earliest start wins
     when domains race *)
  started_at : float Atomic.t;
  (* end of the current scheduler slice (nan: not sliced); one cell
     shared by the whole sub-budget tree so a ticker anywhere in a
     sliced solve yields — see step.ml *)
  slice_end : float Atomic.t;
  (* every sub ever created, so pause credits reach running subs *)
  kids : t list Atomic.t;
}

let create ?time_limit ?max_states ?incumbent ?scheduler () =
  {
    time_limit;
    max_states;
    flag = Atomic.make false;
    parent = None;
    inc = incumbent;
    sched = scheduler;
    pool = None;
    started_at = Atomic.make Float.nan;
    slice_end = Atomic.make Float.nan;
    kids = Atomic.make [];
  }

let of_spec ?incumbent (s : spec) =
  create ?time_limit:s.time_limit ?max_states:s.max_states ?incumbent ()

let time_limit b = b.time_limit
let max_states b = b.max_states
let incumbent b = b.inc
let scheduler b = b.sched

let publish b ~witness w =
  match b.inc with
  | Some i -> ignore (Incumbent.offer_ub i ~witness w)
  | None -> ()

let start b =
  let cur = Atomic.get b.started_at in
  if Float.is_nan cur then
    ignore (Atomic.compare_and_set b.started_at cur (Clock.now ()))

let elapsed b =
  let s = Atomic.get b.started_at in
  if Float.is_nan s then 0.0 else Clock.now () -. s

(* seconds left before the deadline; clamped at 0: past the deadline,
   sub stages created from this budget must see an empty share, not
   inherit a [Some negative] limit that would never trip their
   tickers *)
let remaining b =
  match b.time_limit with
  | None -> None
  | Some limit -> Some (Float.max 0.0 (limit -. elapsed b))

let cancel b =
  Atomic.set b.flag true;
  match b.inc with Some i -> Incumbent.cancel i | None -> ()

let rec cancelled b =
  Atomic.get b.flag
  || (match b.inc with
     | Some i -> Incumbent.cancelled i || Incumbent.closed i
     | None -> false)
  || (match b.parent with Some p -> cancelled p | None -> false)

(* a copy shares every mutable cell (clock, flag, slice, kids), so the
   view is the same budget with one more counter; without a state cap
   there is nothing to pool and no atomic traffic *)
let pooled b =
  match b.max_states with
  | None -> b
  | Some _ -> { b with pool = Some (Atomic.make 0) }

let rec push_kid parent child =
  let cur = Atomic.get parent.kids in
  if not (Atomic.compare_and_set parent.kids cur (child :: cur)) then
    push_kid parent child

let sub ?(stages = 1) b =
  let stages = max 1 stages in
  let child =
    {
      time_limit =
        (match remaining b with
        | None -> None
        | Some r -> Some (r /. float_of_int stages));
      max_states = b.max_states;
      flag = Atomic.make false;
      parent = Some b;
      inc = None;
      sched = b.sched;
      pool = None;
      started_at = Atomic.make Float.nan;
      slice_end = b.slice_end;
      kids = Atomic.make [];
    }
  in
  push_kid b child;
  child

(* ------------------------------------------------------------------ *)
(* Time-slicing support (driven by Step)                               *)
(* ------------------------------------------------------------------ *)

type _ Effect.t += Slice_expired : unit Effect.t

let begin_slice b ~until = Atomic.set b.slice_end until
let end_slice b = Atomic.set b.slice_end Float.nan
let in_slice b = not (Float.is_nan (Atomic.get b.slice_end))

let rec credit_pause b seconds =
  if seconds > 0.0 then begin
    let rec bump () =
      let s = Atomic.get b.started_at in
      if
        (not (Float.is_nan s))
        && not (Atomic.compare_and_set b.started_at s (s +. seconds))
      then bump ()
    in
    bump ();
    List.iter (fun child -> credit_pause child seconds) (Atomic.get b.kids)
  end

(* ------------------------------------------------------------------ *)
(* Amortized checking                                                  *)
(* ------------------------------------------------------------------ *)

type ticker = {
  budget : t;
  t0 : float;
  mutable visited : int;
  mutable generated : int;
  mutable credit : int;  (** checks left before the next clock read *)
  mutable stride : int;  (** current amortization window *)
  mutable last_poll : float;
  mutable stopped : bool;  (** latched once any limit trips *)
}

let max_stride = 1024

(* widen the window while consecutive clock reads land closer together
   than this, shrink it when they land further apart: tight search
   loops converge to ~[max_stride] checks per read, a GA that checks
   once per generation converges back to stride 1 *)
let poll_granularity = 0.002

let ticker b =
  start b;
  let now = Clock.now () in
  {
    budget = b;
    t0 = now;
    visited = 0;
    generated = 0;
    credit = 1;
    stride = 1;
    last_poll = now;
    stopped = false;
  }

let budget tk = tk.budget
let ticker_elapsed tk = Clock.now () -. tk.t0
let tick_visited tk = tk.visited <- tk.visited + 1
let tick_generated tk =
  tk.generated <- tk.generated + 1;
  match tk.budget.pool with Some n -> Atomic.incr n | None -> ()
let visited tk = tk.visited
let generated tk = tk.generated

let poll tk =
  let now = Clock.now () in
  let dt = now -. tk.last_poll in
  tk.last_poll <- now;
  if dt < poll_granularity then tk.stride <- min max_stride (tk.stride * 2)
  else tk.stride <- max 1 (tk.stride / 2);
  tk.credit <- tk.stride;
  (* a nan slice_end (not sliced) compares false; the perform suspends
     this very poll — the step runner resumes it after the park, and
     the deadline verdict below is computed with the pre-park [now],
     which the pause credit keeps approximately right *)
  if now > Atomic.get tk.budget.slice_end then Effect.perform Slice_expired;
  match tk.budget.time_limit with
  | Some limit -> now -. Atomic.get tk.budget.started_at > limit
  | None -> false

let out_of_budget tk =
  tk.stopped
  ||
  let b = tk.budget in
  let states_hit =
    match (b.max_states, b.pool) with
    | Some m, Some n -> Atomic.get n > m
    | Some m, None -> tk.generated > m
    | None, _ -> false
  in
  let cancel_hit = cancelled b in
  let time_hit =
    match b.time_limit with
    | None ->
        (* still poll occasionally: an unlimited budget inside a sliced
           solve must yield too *)
        tk.credit <- tk.credit - 1;
        if tk.credit <= 0 then ignore (poll tk);
        false
    | Some _ ->
        tk.credit <- tk.credit - 1;
        if tk.credit <= 0 then poll tk else false
  in
  if states_hit || cancel_hit || time_hit then begin
    tk.stopped <- true;
    if cancel_hit then Obs.Counter.incr c_cancellations;
    true
  end
  else false

let check tk = if not tk.stopped then ignore (out_of_budget tk)
