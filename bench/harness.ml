(* Shared pieces of the experiment harness: table printing, statistics,
   the scale record, the report each experiment returns, and the one
   gate every recorded figure goes through. *)

module Obs = Hd_obs.Obs

let line = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

let mean xs =
  List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let std_dev xs =
  let m = mean xs in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
    /. float_of_int (max 1 (List.length xs - 1))
  in
  sqrt var

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      (List.nth sorted ((n - 1) / 2) +. List.nth sorted (n / 2)) /. 2.0

let imin xs = List.fold_left min max_int xs
let imax xs = List.fold_left max min_int xs
let fmean xs = mean (List.map float_of_int xs)

let time = Hd_engine.Clock.time

(* run a seeded experiment [runs] times and summarise the integer
   results *)
type summary = { min : int; max : int; avg : float; std : float; secs : float }

let summarise ~runs f =
  let results = ref [] and secs = ref 0.0 in
  for r = 1 to runs do
    let value, elapsed = time (fun () -> f ~run:r) in
    results := value :: !results;
    secs := !secs +. elapsed
  done;
  let xs = !results in
  {
    min = imin xs;
    max = imax xs;
    avg = fmean xs;
    std = std_dev (List.map float_of_int xs);
    secs = !secs;
  }

let outcome_string (o : Hd_engine.Solver.outcome) =
  match o with
  | Exact w -> Printf.sprintf "%d*" w
  | Bounds { lb; ub } -> Printf.sprintf "[%d,%d]" lb ub

(* scale parameters chosen on the command line *)
type scale = {
  time_limit : float;  (** per exact-search run *)
  runs : int;  (** repetitions for randomised methods *)
  population : int;
  iterations : int;
  jobs : int;  (** worker domains for the parallel and corpus experiments *)
  full : bool;  (** paper-size instance lists *)
  states : int option;
      (** deterministic budgets: replace the wall-clock limit with a
          state cap, making sweep results machine-independent *)
  baseline : string option;
      (** corpus regression gate: a previous BENCH_report.json to diff
          the fresh sweep against *)
  widths_only : bool;  (** regression gate: skip the >2x time checks *)
}

let default_scale =
  {
    time_limit = 5.0;
    runs = 3;
    population = 60;
    iterations = 150;
    jobs = Hd_parallel.Portfolio.default_jobs ();
    full = false;
    states = None;
    baseline = None;
    widths_only = false;
  }

(* the passive spec for the portfolio and the corpus sweep *)
let budget scale =
  match scale.states with
  | Some n -> { Hd_engine.Budget.time_limit = None; max_states = Some n }
  | None ->
      { Hd_engine.Budget.time_limit = Some scale.time_limit; max_states = None }

(* a fresh running budget for one solver call: a started budget keeps
   its clock, so never share one across runs.  [scheduler] is what the
   call may fork onto; without one it stays on the calling domain *)
let within ?scheduler scale =
  let { Hd_engine.Budget.time_limit; max_states } = budget scale in
  Hd_engine.Budget.create ?time_limit ?max_states ?scheduler ()

(* the registry entry [name] once on [problem] with seed 1, without the
   engine's block split: the tables run the searches the CLI runs *)
let entry name scale problem =
  Hd_parallel.Registry.ensure ();
  match Hd_engine.Solver.find name with
  | Some s -> s.run ~seed:1 (within scale) problem
  | None -> invalid_arg ("no solver " ^ name)

let graph name =
  match Hd_instances.Graphs.by_name name with
  | Some g -> g
  | None -> failwith ("unknown graph instance " ^ name)

let hypergraph name =
  match Hd_instances.Hypergraphs.by_name name with
  | Some h -> h
  | None -> failwith ("unknown hypergraph instance " ^ name)

(* [counter_deltas names f] runs [f] and pairs each named hd_obs
   counter with how much it grew while [f] ran *)
let counter_deltas names f =
  let value name = Obs.Counter.value (Obs.Counter.make name) in
  let before = List.map value names in
  let result = f () in
  (result, List.map2 (fun name b -> (name, value name - b)) names before)

(* [allocation f] runs [f] and adds the words it allocated in the
   calling domain: minor words, and words allocated straight into the
   major heap (major minus promoted: blocks over 256 words) *)
let allocation f =
  let minor0, promoted0, major0 = Gc.counters () in
  let result = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  ( result,
    int_of_float (minor1 -. minor0),
    int_of_float (major1 -. major0 -. (promoted1 -. promoted0)) )

(* what one experiment hands back: its top-level BENCH_report.json
   section, if it has one, and its gate verdict *)
type result = {
  section : (string * Obs.Json.t) option;
  verdict : string;  (** "pass", "fail" or "report-only" *)
  regressed : bool;  (** a -baseline diff found a regression *)
}

(* the result of an experiment that only prints its table *)
let printed = { section = None; verdict = "report-only"; regressed = false }

let section ?(verdict = "report-only") ?(regressed = false) key json =
  { section = Some (key, json); verdict; regressed }

(* one recorded figure a gate holds a run to *)
type check =
  | Exact of string * int * int  (** name, recorded, measured *)
  | At_most of string * int * int  (** name, recorded ceiling, measured *)
  | Holds of bool * string  (** condition, message when it fails *)

let failure = function
  | Exact (name, recorded, n) when n <> recorded ->
      Some (Printf.sprintf "%s is %d, recorded %d" name n recorded)
  | At_most (name, recorded, n) when n > recorded ->
      Some (Printf.sprintf "%s is %d, recorded at most %d" name n recorded)
  | Holds (false, message) -> Some message
  | Exact _ | At_most _ | Holds _ -> None

(* the one pass/fail policy: an unenforced run only reports; an
   enforced one prints a FAIL: line per broken check *)
let gate ~enforced checks =
  if not enforced then "report-only"
  else
    match List.filter_map failure checks with
    | [] -> "pass"
    | failures ->
        List.iter (Printf.printf "FAIL: %s\n") failures;
        "fail"

(* 3 if a -baseline diff regressed, else 1 if a gate failed, else 0 *)
let exit_status results =
  if List.exists (fun r -> r.regressed) results then 3
  else if List.exists (fun r -> r.verdict = "fail") results then 1
  else 0

(* run one experiment under hd_obs: its BENCH_report.json
   "experiments" entry, and its result *)
let record name f =
  Obs.enable ();
  Obs.reset ();
  let started = Hd_engine.Clock.now () in
  let result = f () in
  let elapsed = Hd_engine.Clock.now () -. started in
  let snapshot =
    Obs.Json.Obj
      [
        ("experiment", Obs.Json.String name);
        ("wall_seconds", Obs.Json.Float elapsed);
        ("report", Obs.report ());
      ]
  in
  Obs.disable ();
  (snapshot, result)

let write_bench_report ?(path = "BENCH_report.json") runs =
  let doc =
    Obs.Json.Obj
      (("schema", Obs.Json.String "hd_obs/bench/1")
      :: ("experiments", Obs.Json.List (List.map fst runs))
      :: List.filter_map (fun (_, r) -> r.section) runs)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string doc);
      output_char oc '\n');
  Printf.printf "\nwrote %s (%d experiments)\n" path (List.length runs)
