module Obs = Hd_obs.Obs

let c_slices = Obs.Counter.make "engine.slices"
let c_yields = Obs.Counter.make "engine.yields"

type 'a outcome = Done of 'a | Yielded

type 'a st =
  | Fresh of (unit -> 'a)
  | Parked of (unit, 'a outcome) Effect.Deep.continuation * float
      (* paused mid-poll; the float is the Clock time of the park, so
         the resume can credit the pause back to the budget *)
  | Completed of 'a
  | Poisoned of exn

type 'a t = { budget : Budget.t; mutable st : 'a st; mutable slices : int }

let make budget f = { budget; st = Fresh f; slices = 0 }
let slices t = t.slices

let finished t =
  match t.st with Completed _ | Poisoned _ -> true | Fresh _ | Parked _ -> false

(* One deep handler per task, installed by the first slice and kept
   across parks: [continue] re-enters it, so every later yield and the
   final return flow through the same closures. *)
let handler (t : 'a t) : ('a, 'a outcome) Effect.Deep.handler =
  {
    Effect.Deep.retc =
      (fun v ->
        t.st <- Completed v;
        Done v);
    exnc =
      (fun e ->
        t.st <- Poisoned e;
        raise e);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Budget.Slice_expired ->
            Some
              (fun (k : (b, _) Effect.Deep.continuation) ->
                Obs.Counter.incr c_yields;
                t.st <- Parked (k, Clock.now ());
                Yielded)
        | _ -> None);
  }

let slice t ~seconds =
  match t.st with
  | Completed v -> Done v
  | Poisoned e -> raise e
  | (Fresh _ | Parked _) as st ->
      Obs.Counter.incr c_slices;
      t.slices <- t.slices + 1;
      Budget.begin_slice t.budget ~until:(Clock.now () +. seconds);
      Fun.protect
        ~finally:(fun () -> Budget.end_slice t.budget)
        (fun () ->
          match st with
          | Fresh f -> Effect.Deep.match_with f () (handler t)
          | Parked (k, parked_at) ->
              Budget.credit_pause t.budget (Clock.now () -. parked_at);
              Effect.Deep.continue k ()
          | Completed _ | Poisoned _ -> assert false)

let unsliced f =
  Effect.Deep.match_with f ()
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Budget.Slice_expired ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  Effect.Deep.continue k ())
          | _ -> None);
    }

(* the one fork rule: work leaves this domain only when the budget
   lends a scheduler and no slice is armed, because the Slice_expired
   handler lives on the slicing domain *)
let fork_onto b =
  match Budget.scheduler b with
  | Some s when not (Budget.in_slice b) -> Some s
  | _ -> None

let run_all b tasks =
  match fork_onto b with
  | Some s -> Scheduler.run_all s (List.map (fun f () -> unsliced f) tasks)
  | None -> List.iter (fun f -> f ()) tasks

let executors b =
  match fork_onto b with Some s -> Scheduler.size s + 1 | None -> 1

let rec run_to_completion ?(seconds = 0.05) t =
  match slice t ~seconds with
  | Done v -> v
  | Yielded -> run_to_completion ~seconds t
