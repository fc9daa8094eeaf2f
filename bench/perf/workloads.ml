(* The four workloads.

   Every workload runs its set-up several times and keeps the last one,
   runs an untimed warm-up where it has one, repeats one unit of work —
   a sweep or ladder pass, a server round — until the requested seconds
   have passed, and then checks every output against a reference
   computed outside the system under test.  The system is driven only
   through public entry points: Sweep.sweep_loaded, Engine.run_by_name,
   Server.serve over a pipe pair, Yannakakis. *)

module Obs = Hd_obs.Obs
module Json = Obs.Json
module H = Hd_hypergraph.Hypergraph
module Clock = Hd_engine.Clock
module Budget = Hd_engine.Budget
module Solver = Hd_engine.Solver
module Sweep = Hd_corpus.Sweep
module Server = Hd_server.Server

type run = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** end-to-end, by name *)
  samples : (string * Json.t) list;  (** raw measurements, for the result file *)
}

(* --- calibration ---------------------------------------------------------
   A shared machine runs all code up to 1.5x slower for a minute or
   more at a time, which no statistic within one run can see past.  So
   a fixed kernel of the benchmark's own is timed before every set-up,
   pass and round, and each time measured there is reported scaled by
   nominal / kernel time.  The kernel hashes integers into a
   preallocated array: it allocates nothing, so no collector setting
   the library chooses can move it.  The nominal is the kernel's time
   on a quiet machine, where calibrated and raw times agree; raw times
   stay in the result file. *)

let nominal_kernel_s = 0.009
let kernel_data = Array.make 65536 0

let kernel () =
  let x = ref 12345 in
  for _ = 1 to 5_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land 65535 in
    kernel_data.(i) <- kernel_data.(i) + (!x lsr 16)
  done

(* the fastest of three, so one preempted timing does not count *)
let kernel_s () =
  let t () = snd (Clock.time kernel) in
  let a = t () in
  let b = t () in
  Float.min a (Float.min b (t ()))

(* a measured time paired with the kernel time taken just before it *)
type timed = { seconds : float; kernel : float }

let calibrated t = t.seconds *. nominal_kernel_s /. t.kernel
let raw t = t.seconds

(* [time f] times [f ()] after timing the kernel *)
let time f =
  let kernel = kernel_s () in
  let x, seconds = Clock.time f in
  (x, { seconds; kernel })

(* --- the shape of a run ---------------------------------------------------- *)

let set_up_reps () = if !Fixture.tiny then 1 else 7

(* [set_up ~dispose f] runs [f] several times and returns the set-up
   times with the last result; earlier results are disposed, and
   collected before the next repetition starts its clock *)
let set_up ~dispose f =
  let times = ref [] and last = ref None in
  for _ = 1 to set_up_reps () do
    Option.iter dispose !last;
    Gc.full_major ();
    let x, t = time f in
    times := t :: !times;
    last := Some x
  done;
  (List.rev !times, Option.get !last)

(* [units ~continue_ prepare f] times units [f (prepare k)] for
   k = 0, 1, ... while [continue_ k elapsed] holds; [prepare] runs
   outside the clock *)
let units ~continue_ prepare f =
  let t0 = Clock.now () in
  let rec go k acc =
    if continue_ k (Clock.now () -. t0) then begin
      let x = prepare k in
      go (k + 1) (time (fun () -> f x) :: acc)
    end
    else List.rev acc
  in
  go 0 []

(* at least one unit, then more until [seconds] have passed *)
let for_seconds seconds k elapsed = k = 0 || elapsed < seconds

(* the process's peak resident set, from the kernel's high-water mark *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" float_of_int /. 1024.0
            else find ()
      in
      let mb = find () in
      close_in ic;
      mb

(* [(op, x)] samples grouped by op, in a fixed op order *)
let by_op samples =
  let ops = List.sort_uniq compare (List.map fst samples) in
  List.map (fun op -> List.filter_map (fun (o, x) -> if o = op then Some x else None) samples) ops

(* Every unit carries the same ops.  Each op's latencies over the units
   are summarised by their median, and the latency quantiles range over
   the distinct ops, each weighted once; throughput is the items of one
   unit over the median unit time. *)
let e2e ~at ~setup ~items_per_unit ~units ~groups ~exact_share ~width_mean =
  let median ts = Stats.median (List.map at ts) in
  let per_op = List.map (fun g -> 1000.0 *. median g) groups in
  [
    ("setup_s", median setup);
    ("peak_rss_mb", peak_rss_mb ());
    ("ops_per_s", float_of_int items_per_unit /. median units);
    ("latency_p50_ms", Stats.quantile 0.5 per_op);
    ("latency_p95_ms", Stats.quantile 0.95 per_op);
    ("exact_share", exact_share);
    ("width_mean", width_mean);
  ]

(* the run's calibrated metrics, with the raw ones and every sample
   behind them kept for the result file *)
let finish ~attempted ~failed ~setup ~items_per_unit ~units ~groups ~exact_share ~width_mean =
  let metrics at = e2e ~at ~setup ~items_per_unit ~units ~groups ~exact_share ~width_mean in
  let floats f ts = Json.List (List.map (fun t -> Json.Float (f t)) ts) in
  {
    attempted;
    failed;
    metrics = metrics calibrated;
    samples =
      [
        ("raw_metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (metrics raw)));
        ("nominal_kernel_seconds", Json.Float nominal_kernel_s);
        ("setup_seconds", floats raw setup);
        ("setup_kernel_seconds", floats (fun t -> t.kernel) setup);
        ("unit_seconds", floats raw units);
        ("unit_kernel_seconds", floats (fun t -> t.kernel) units);
        ("latency_groups", Json.List (List.map (floats raw) groups));
      ];
  }

let share k n = if n = 0 then 0.0 else float_of_int k /. float_of_int n
let count p xs = List.length (List.filter p xs)
let sum xs = List.fold_left ( +. ) 0.0 xs

(* --- corpus-sweep ------------------------------------------------------------ *)

let state_cap = 4000
let sweep_budget = { Budget.time_limit = None; max_states = Some state_cap }

let corpus_set_up () =
  Server.ensure_registry ();
  Fixture.sized (Fixture.corpus ())

(* Each pass visits the instances in a fresh seeded order.  The order
   changes nothing a correct sweep reports; varying it keeps one
   order's memory and collector pattern out of every pass. *)
let reorder rng xs = Array.to_list (Fixture.shuffle rng (Array.of_list xs))

let sweep_pass instances =
  Obs.with_span "bench.sweep_pass" @@ fun () ->
  Sweep.sweep_loaded ~jobs:1 ~budget:sweep_budget ~seed:1
    (List.map (fun (i : Fixture.instance) -> (i.collection, i.name, i.h)) instances)

let row_key (row : Sweep.row) = row.collection ^ "/" ^ row.name

let sweep_table (r : Sweep.report) =
  List.sort compare (List.map (fun (row : Sweep.row) -> (row_key row, row.width, row.exact)) r.rows)

let mismatches a b =
  if List.length a <> List.length b then max (List.length a) (List.length b)
  else count Fun.id (List.map2 ( <> ) a b)

(* width 1 holds exactly for the alpha-acyclic instances *)
let acyclicity_violations instances table =
  count
    (fun (i : Fixture.instance) ->
      match List.find_opt (fun (k, _, _) -> k = Fixture.key i) table with
      | None -> true
      | Some (_, width, _) -> Hd_hypergraph.Acyclicity.is_acyclic i.h <> (width = 1))
    instances

let corpus_sweep ~seed ~seconds =
  let setup, instances = set_up ~dispose:ignore corpus_set_up in
  let rng = Fixture.rng seed 1 in
  let pass () = sweep_pass (reorder rng instances) in
  let reference = sweep_table (pass ()) in
  let passes = units ~continue_:(for_seconds seconds) ignore pass in
  let n = List.length instances in
  (* an instance's latency is the sweep's own wall clock for it *)
  let groups =
    by_op
      (List.concat_map
         (fun ((r : Sweep.report), t) ->
           List.map (fun (row : Sweep.row) -> (row_key row, { t with seconds = row.seconds })) r.rows)
         passes)
  in
  let failed =
    List.fold_left (fun acc (r, _) -> acc + mismatches (sweep_table r) reference) 0 passes
    + acyclicity_violations instances reference
  in
  finish ~attempted:(n * List.length passes) ~failed ~setup ~items_per_unit:n
    ~units:(List.map snd passes) ~groups
    ~exact_share:(share (count (fun (_, _, e) -> e) reference) n)
    ~width_mean:(sum (List.map (fun (_, w, _) -> float_of_int w) reference) /. float_of_int n)

(* --- width-ladder ------------------------------------------------------------ *)

let ladder_solvers = [ "bb-ghw"; "fhw-bb"; "hw-det-k" ]

(* det-k ignores the state cap, so the ladder keeps to the instances
   where it finishes in milliseconds *)
let ladder_set_up () = List.filter (fun i -> Fixture.weight i <= 50) (corpus_set_up ())

(* [((instance, solver), outcome, seconds)] per run *)
let ladder_pass instances =
  List.concat_map
    (fun (i : Fixture.instance) ->
      List.map
        (fun solver ->
          let r, dt =
            Clock.time @@ fun () ->
            Obs.with_span ("bench.ladder." ^ solver) @@ fun () ->
            Hd_engine.Engine.run_by_name ~seed:1 solver
              (Budget.create ~max_states:state_cap ())
              (Solver.Hypergraph i.h)
          in
          ((Fixture.key i, solver), r.Solver.outcome, dt))
        ladder_solvers)
    instances

let ladder_table pass = List.sort compare (List.map (fun (op, o, _) -> (op, o)) pass)

(* fhw <= ghw <= hw <= 3 ghw + 1 wherever both sides were proved *)
let hierarchy_violations table =
  let exact key solver =
    match List.assoc_opt (key, solver) table with Some (Solver.Exact w) -> Some w | _ -> None
  in
  count
    (fun k ->
      let fhw = exact k "fhw-bb" and ghw = exact k "bb-ghw" and hw = exact k "hw-det-k" in
      (match (fhw, ghw) with Some f, Some g -> f > g | _ -> false)
      || match (ghw, hw) with Some g, Some h -> g > h || h > (3 * g) + 1 | _ -> false)
    (List.sort_uniq compare (List.map (fun ((k, _), _) -> k) table))

let width_ladder ~seed ~seconds =
  let setup, instances = set_up ~dispose:ignore ladder_set_up in
  let rng = Fixture.rng seed 1 in
  let pass () = ladder_pass (reorder rng instances) in
  let reference = ladder_table (pass ()) in
  let passes = units ~continue_:(for_seconds seconds) ignore pass in
  let n = List.length reference in
  let groups =
    by_op (List.concat_map (fun (p, t) -> List.map (fun (op, _, dt) -> (op, { t with seconds = dt })) p) passes)
  in
  let failed =
    List.fold_left (fun acc (p, _) -> acc + mismatches (ladder_table p) reference) 0 passes
    + hierarchy_violations reference
  in
  finish ~attempted:(n * List.length passes) ~failed ~setup ~items_per_unit:n ~units:(List.map snd passes)
    ~groups
    ~exact_share:(share (count (function _, Solver.Exact _ -> true | _ -> false) reference) n)
    ~width_mean:(sum (List.map (fun (_, o) -> float_of_int (Solver.value o)) reference) /. float_of_int n)

(* --- a server over a pipe pair ------------------------------------------------ *)

type client = { to_server : out_channel; from_server : in_channel; serving : Server.outcome Domain.t }

let start_server config =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
  let serving =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () ->
            close_out_noerr oc;
            close_in_noerr ic)
          (fun () -> Server.serve ~config ic oc))
  in
  { to_server = Unix.out_channel_of_descr req_w; from_server = Unix.in_channel_of_descr resp_r; serving }

let call c line =
  output_string c.to_server line;
  output_char c.to_server '\n';
  flush c.to_server;
  Json.parse (input_line c.from_server)

let stop_server c =
  ignore (call c {|{"op":"shutdown"}|});
  close_out_noerr c.to_server;
  ignore (Domain.join c.serving);
  close_in_noerr c.from_server

(* set-up ends at the server's first reply *)
let ready config =
  let c = start_server config in
  ignore (call c {|{"op":"solvers"}|});
  c

let field k j = Json.member k j
let bool_f k j = match field k j with Some (Json.Bool b) -> b | _ -> false
let str_f k j = match field k j with Some (Json.String s) -> s | _ -> ""

let int_f k j =
  match field k j with Some (Json.Int i) -> i | Some (Json.Float f) -> int_of_float f | _ -> -1

let float_f k j =
  match field k j with Some (Json.Int i) -> float_of_int i | Some (Json.Float f) -> f | _ -> 0.0

(* Requests come in rounds drawn from one seeded stream, each made on
   first use: set-up makes round 0, and later rounds are made between
   rounds, outside their clocks. *)
type 'a rounds = { make : unit -> 'a; made : (int, 'a) Hashtbl.t }

let rounds make = { make; made = Hashtbl.create 64 }

let round r k =
  for i = Hashtbl.length r.made to k do
    Hashtbl.add r.made i (r.make ())
  done;
  Hashtbl.find r.made k


(* --- server-stream ------------------------------------------------------------ *)

let stream_state_cap = 2000

let stream_config =
  {
    Server.default_config with
    workers = 1;
    slice = 0.05;
    default_time_limit = None;
    default_max_states = Some stream_state_cap;
  }

let in_flight = 4

type submission = { inst : int; text : string; line : string }

type reply = {
  sub : submission;
  latency : float;
  final : Json.t;  (** the reply or poll that showed the job terminal *)
  seen_exact : bool;  (** an exact result for this instance came back before it was sent *)
}

(* one round submits every corpus instance once, renamed, in a seeded
   order: each round carries the same mix of cache hits, fresh solves
   and state-capped solves *)
let stream_round rng (instances : Fixture.instance array) () =
  Fixture.shuffle rng (Array.init (Array.length instances) Fun.id)
  |> Array.to_list
  |> List.map (fun inst ->
         let text = Fixture.renamed rng instances.(inst).h in
         let line =
           Json.to_compact
             (Json.Obj
                [ ("op", Json.String "submit"); ("hypergraph", Json.String text); ("ordering", Json.Bool true) ])
         in
         { inst; text; line })

type stream = { instances : Fixture.instance array; requests : submission list rounds; client : client }

let stream_set_up ~seed =
  Server.ensure_registry ();
  let instances = Array.of_list (Fixture.sized (Fixture.corpus ())) in
  let requests = rounds (stream_round (Fixture.rng seed 2) instances) in
  ignore (round requests 0);
  { instances; requests; client = ready stream_config }

let terminal j = match str_f "state" j with "done" | "cancelled" | "failed" -> true | _ -> false

let outcome_exact j =
  match field "result" j with Some r -> str_f "outcome" r = "exact" | None -> false

(* A closed loop keeping [in_flight] submits outstanding: it waits
   briefly on the oldest job, then polls the others.  A round ends when
   its last job does, so rounds are comparable units.  Returns every
   round's replies in completion order. *)
let pump st ~continue_ =
  let exact_seen = Hashtbl.create 64 in
  units ~continue_ (round st.requests) @@ fun subs ->
  let replies = ref [] and outstanding = ref [] in
  let finish (sub, sent, seen_exact) final =
    if outcome_exact final then Hashtbl.replace exact_seen sub.inst ();
    replies := { sub; latency = Clock.now () -. sent; final; seen_exact } :: !replies
  in
  let settle ((job, pending) as entry) op =
    let j = call st.client (Printf.sprintf op job) in
    if (not (bool_f "ok" j)) || terminal j then (
      finish pending j;
      None)
    else Some entry
  in
  let submit sub =
    let pending = (sub, Clock.now (), Hashtbl.mem exact_seen sub.inst) in
    let j = call st.client sub.line in
    if (not (bool_f "ok" j)) || terminal j then finish pending j
    else outstanding := !outstanding @ [ (int_f "job" j, pending) ]
  in
  let drain () =
    match !outstanding with
    | [] -> ()
    | oldest :: rest ->
        let first = settle oldest {|{"op":"wait","job":%d,"timeout":0.004}|} in
        let others = List.filter_map (fun e -> settle e {|{"op":"poll","job":%d}|}) rest in
        outstanding := Option.to_list first @ others
  in
  let rec go = function
    | sub :: rest when List.length !outstanding < in_flight ->
        submit sub;
        go rest
    | [] when !outstanding = [] -> ()
    | pending ->
        drain ();
        go pending
  in
  go subs;
  List.rev !replies

let result_of r = Option.value ~default:Json.Null (field "result" r.final)

(* Each exact width must match an in-process bb-ghw run on the original
   instance, and each witness ordering must evaluate, with exact bag
   covers, to at most the reported upper bound. *)
let check_replies (instances : Fixture.instance array) replies =
  let reference = Hashtbl.create 64 in
  let expected inst =
    match Hashtbl.find_opt reference inst with
    | Some b -> b
    | None ->
        let r =
          Hd_engine.Engine.run_by_name ~seed:1 "bb-ghw"
            (Budget.create ~max_states:stream_state_cap ())
            (Solver.Hypergraph instances.(inst).h)
        in
        let b = Solver.bounds_of r.Solver.outcome in
        Hashtbl.replace reference inst b;
        b
  in
  count
    (fun r ->
      let res = result_of r in
      let lb = int_f "lb" res and ub = int_f "ub" res in
      let ref_lb, ref_ub = expected r.sub.inst in
      let bounds_ok = lb >= 0 && lb <= ub && lb <= ref_ub && ref_lb <= ub in
      let witness_ok =
        match field "ordering" res with
        | Some (Json.List vs) ->
            let sigma = Array.of_list (List.map (function Json.Int v -> v | _ -> -1) vs) in
            let h = Hd_hypergraph.Hg_format.parse_string r.sub.text in
            Array.length sigma = H.n_vertices h
            && Hd_core.Ordering.is_permutation sigma
            && Hd_core.Eval.ghw_width_exact (Hd_core.Eval.of_hypergraph h) sigma <= ub
        | _ -> not (outcome_exact r.final)
      in
      (not (bool_f "ok" r.final)) || str_f "state" r.final <> "done" || (not bounds_ok) || not witness_ok)
    replies

let server_stream ~seed ~seconds =
  let setup, st = set_up ~dispose:(fun st -> stop_server st.client) (fun () -> stream_set_up ~seed) in
  let rounds =
    Fun.protect ~finally:(fun () -> stop_server st.client) @@ fun () ->
    pump st ~continue_:(for_seconds seconds)
  in
  let replies = List.concat_map fst rounds in
  let groups =
    by_op (List.concat_map (fun (rs, t) -> List.map (fun r -> (r.sub.inst, { t with seconds = r.latency })) rs) rounds)
  in
  finish ~attempted:(List.length replies) ~failed:(check_replies st.instances replies) ~setup
    ~items_per_unit:(Array.length st.instances) ~units:(List.map snd rounds) ~groups
    ~exact_share:(share (count (fun r -> outcome_exact r.final) replies) (List.length replies))
    ~width_mean:(Stats.mean (List.map (fun r -> float_of_int (int_f "width" (result_of r))) replies))

(* --- query-bulk --------------------------------------------------------------- *)

(* (vertices, out-degree) of the query database *)
let graph_size () = if !Fixture.tiny then (30, 3) else (128, 4)

type bulk_request = { line : int; shapes : Fixture.shape list; bulk_line : string }

type bulk = {
  graph : Fixture.digraph;
  dir : string;
  bulk_requests : bulk_request list rounds;
  bulk_client : client;
}

(* set-up writes the database under the benchmark's own output
   directory; [cleanup] removes it *)
let work_dir () = Filename.concat "bench/perf/_out" (Printf.sprintf "work-%d" (Unix.getpid ()))

let cleanup () =
  let dir = work_dir () in
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* every round sends the run's 7 requests in a fresh order, with fresh
   variable names *)
let bulk_round rng dir lines () =
  Array.to_list (Fixture.shuffle rng (Array.init (Array.length lines) Fun.id))
  |> List.map (fun line ->
         let shapes = lines.(line) in
         let cqs = List.map (fun s -> Json.String (Fixture.cq_text rng s)) shapes in
         let bulk_line =
           Json.to_compact
             (Json.Obj
                [
                  ("op", Json.String "bulk");
                  ("cqs", Json.List cqs);
                  ("data", Json.List [ Json.String dir ]);
                  ("mode", Json.String "count");
                ])
         in
         { line; shapes; bulk_line })

let bulk_config = { Server.default_config with workers = 1 }

let bulk_set_up ~seed =
  Server.ensure_registry ();
  let n, out_degree = graph_size () in
  let graph = Fixture.digraph (Fixture.rng seed 3) ~n ~out_degree in
  let dir = work_dir () in
  Report.mkdir_p dir;
  Fixture.write_csv (Filename.concat dir "e.csv") graph;
  let rng = Fixture.rng seed 4 in
  let bulk_requests = rounds (bulk_round rng dir (Fixture.fano_lines rng)) in
  ignore (round bulk_requests 0);
  { graph; dir; bulk_requests; bulk_client = ready bulk_config }

(* every round's [(request, reply, seconds)], requests sent one at a time *)
let bulk_pump b ~continue_ =
  units ~continue_ (round b.bulk_requests)
    (List.map (fun req ->
         let j, dt = Clock.time (fun () -> call b.bulk_client req.bulk_line) in
         (req, j, dt)))

(* [(shape, reply query object)] per answered query, and the number of
   queries whose request was refused *)
let answers exchanges =
  List.fold_left
    (fun (answered, refused) (req, j, _) ->
      match field "queries" j with
      | Some (Json.List qs) when bool_f "ok" j && List.length qs = List.length req.shapes ->
          (List.combine req.shapes qs @ answered, refused)
      | _ -> (answered, refused + List.length req.shapes))
    ([], 0) exchanges

(* answer counts against the reference matcher, one count per shape *)
let check_answers graph answered =
  let expected = Hashtbl.create 7 in
  let reference (s : Fixture.shape) =
    match Hashtbl.find_opt expected s.shape with
    | Some c -> c
    | None ->
        let c = Fixture.count_answers graph s in
        Hashtbl.replace expected s.shape c;
        c
  in
  count (fun ((s : Fixture.shape), q) -> int_f "count" q <> reference s) answered

let query_bulk ~seed ~seconds =
  let setup, b = set_up ~dispose:(fun b -> stop_server b.bulk_client) (fun () -> bulk_set_up ~seed) in
  let rounds =
    Fun.protect ~finally:(fun () -> stop_server b.bulk_client) @@ fun () ->
    bulk_pump b ~continue_:(for_seconds seconds)
  in
  let answered, refused = answers (List.concat_map fst rounds) in
  let n = List.length answered in
  let groups =
    by_op (List.concat_map (fun (xs, t) -> List.map (fun (req, _, dt) -> (req.line, { t with seconds = dt })) xs) rounds)
  in
  finish ~attempted:(n + refused) ~failed:(refused + check_answers b.graph answered) ~setup
    ~items_per_unit:(List.length (List.concat_map (fun r -> r.shapes) (round b.bulk_requests 0)))
    ~units:(List.map snd rounds) ~groups
    ~exact_share:(share (count (fun ((s : Fixture.shape), q) -> int_f "width" q = s.ghw) answered) n)
    ~width_mean:(Stats.mean (List.map (fun (_, q) -> float_of_int (int_f "width" q)) answered))

(* --- the registry --------------------------------------------------------------- *)

let all =
  [
    ("corpus-sweep", corpus_sweep);
    ("width-ladder", width_ladder);
    ("server-stream", server_stream);
    ("query-bulk", query_bulk);
  ]
