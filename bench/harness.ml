(* Table-printing and statistics helpers for the experiment harness. *)

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

let outcome_string (o : Hd_search.Search_types.outcome) =
  match o with
  | Hd_search.Search_types.Exact w -> Printf.sprintf "%d*" w
  | Hd_search.Search_types.Bounds { lb; ub } -> Printf.sprintf "[%d,%d]" lb ub

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
   its clock, so never share one across runs *)
let within scale = Hd_engine.Budget.of_spec (budget scale)

(* per-experiment hd_obs snapshots, collected by [record_table] and
   written out as one BENCH_report.json at the end of the run *)
let table_reports : (string * Obs.Json.t) list ref = ref []

let record_table name f =
  Obs.enable ();
  Obs.reset ();
  let started = Hd_engine.Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let elapsed = Hd_engine.Clock.now () -. started in
      let snapshot =
        Obs.Json.Obj
          [
            ("experiment", Obs.Json.String name);
            ("wall_seconds", Obs.Json.Float elapsed);
            ("report", Obs.report ());
          ]
      in
      table_reports := (name, snapshot) :: !table_reports;
      Obs.disable ())
    f

(* the parallel and query experiments' summaries, reported as their own
   top-level sections of BENCH_report.json when the experiments ran *)
let parallel_section : Obs.Json.t option ref = ref None
let set_parallel_section j = parallel_section := Some j
let query_section : Obs.Json.t option ref = ref None
let set_query_section j = query_section := Some j
let ordering_section : Obs.Json.t option ref = ref None
let set_ordering_section j = ordering_section := Some j
let engine_section : Obs.Json.t option ref = ref None
let set_engine_section j = engine_section := Some j
let corpus_section : Obs.Json.t option ref = ref None
let set_corpus_section j = corpus_section := Some j
let widths_section : Obs.Json.t option ref = ref None
let set_widths_section j = widths_section := Some j

(* nonzero when a gating check failed (the corpus regression diff);
   main exits with it after the report is written *)
let exit_code = ref 0

let write_bench_report ?(path = "BENCH_report.json") () =
  let doc =
    Obs.Json.Obj
      ([
         ("schema", Obs.Json.String "hd_obs/bench/1");
         ( "experiments",
           Obs.Json.List (List.rev_map (fun (_, s) -> s) !table_reports) );
       ]
      @ (match !parallel_section with
        | Some j -> [ ("parallel", j) ]
        | None -> [])
      @ (match !query_section with
        | Some j -> [ ("query", j) ]
        | None -> [])
      @ (match !ordering_section with
        | Some j -> [ ("ordering", j) ]
        | None -> [])
      @ (match !engine_section with
        | Some j -> [ ("engine", j) ]
        | None -> [])
      @ (match !corpus_section with
        | Some j -> [ ("corpus", j) ]
        | None -> [])
      @ match !widths_section with
        | Some j -> [ ("widths", j) ]
        | None -> [])
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string doc);
      output_char oc '\n');
  Printf.printf "\nwrote %s (%d experiments)\n" path
    (List.length !table_reports)
