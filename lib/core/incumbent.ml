(* A pair of global bounds shared by concurrently running solvers.

   Both bounds and the witness live in ONE immutable record inside a
   single [Atomic.t], updated by compare-and-set retry loops.  Readers
   therefore always observe a consistent (lb, ub, witness) triple —
   with separate atomics a reader could pair a fresh lb with a stale ub
   and wrongly conclude lb >= ub.  Contention is negligible: solvers
   update bounds a handful of times per run but read them on every
   node, and uncontended atomic reads are plain loads. *)

type packed = { lb : int; ub : int; witness : int array option }

type t = { state : packed Atomic.t; cancelled : bool Atomic.t }

let create ?(lb = 0) ?(ub = max_int) () =
  if lb > ub then invalid_arg "Incumbent.create: lb > ub";
  {
    state = Atomic.make { lb; ub; witness = None };
    cancelled = Atomic.make false;
  }

let lb t = (Atomic.get t.state).lb
let ub t = (Atomic.get t.state).ub

let bounds t =
  let s = Atomic.get t.state in
  (s.lb, s.ub)

let witness t = (Atomic.get t.state).witness

let offer_ub t ?witness w =
  (* copy before the retry loop: the caller may go on mutating its
     ordering buffer, while the published array must stay frozen *)
  let witness = Option.map Array.copy witness in
  let rec go () =
    let cur = Atomic.get t.state in
    if w >= cur.ub then false
    else
      let witness = match witness with Some _ -> witness | None -> cur.witness in
      if Atomic.compare_and_set t.state cur { cur with ub = w; witness } then
        true
      else go ()
  in
  go ()

let rec raise_lb t w =
  let cur = Atomic.get t.state in
  if w <= cur.lb then false
  else if Atomic.compare_and_set t.state cur { cur with lb = w } then true
  else raise_lb t w

let closed t =
  let s = Atomic.get t.state in
  s.lb >= s.ub

let cancel t = Atomic.set t.cancelled true
let cancelled t = Atomic.get t.cancelled
