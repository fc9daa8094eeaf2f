module Obs = Hd_obs.Obs
module B = Hd_engine.Budget
module S = Hd_engine.Solver
module Hypergraph = Hd_hypergraph.Hypergraph

let c_swept = Obs.Counter.make "corpus.swept"
let c_exact = Obs.Counter.make "corpus.exact"
let c_timeouts = Obs.Counter.make "corpus.timeouts"
let c_skipped = Obs.Counter.make "corpus.skipped"

type solver_run = {
  solver : string;
  lb : int;
  ub : int;
  exact : bool;
  seconds : float;
}

type row = {
  collection : string;
  name : string;
  vertices : int;
  edges : int;
  runs : solver_run list;
  winner : string;
  width : int;
  exact : bool;
  seconds : float;
}

type report = {
  roster : string list;
  jobs : int;
  budget : B.spec;
  rows : row list;
  skipped : (string * string) list;
}

type summary = {
  total : int;
  exact_count : int;
  timeouts : int;
  skipped_count : int;
  coverage : int array;
  gt5 : int;
  winners : (string * int) list;
}

let default_roster = [ "min-fill-ghw"; "bb-ghw"; "astar-ghw" ]

let default_budget = { B.time_limit = Some 5.0; max_states = None }

let ensure_registries () =
  Hd_search.Solvers.ensure ();
  Hd_ga.Solvers.ensure ()

let load entries =
  let loaded = ref [] and skipped = ref [] in
  List.iter
    (fun (e : Manifest.entry) ->
      match Corpus.load_file e.Manifest.path with
      | h -> loaded := (e, h) :: !loaded
      | exception Failure msg ->
          Obs.Counter.incr c_skipped;
          skipped := (e.Manifest.path, msg) :: !skipped)
    entries;
  (List.rev !loaded, List.rev !skipped)

(* lowest upper bound wins; an exact result beats bounds at the same
   width; remaining ties go to roster order.  Wall-clock never decides
   the winner, so the table is reproducible run to run. *)
let pick_winner runs =
  let better (i, (a : solver_run)) (j, b) =
    if a.ub <> b.ub then a.ub < b.ub
    else if a.exact <> b.exact then a.exact
    else i < j
  in
  match List.mapi (fun i r -> (i, r)) runs with
  | [] -> invalid_arg "Sweep.pick_winner: no runs"
  | first :: rest ->
      snd
        (List.fold_left
           (fun best cand -> if better cand best then cand else best)
           first rest)

let solve_instance ~roster ~budget ~seed (collection, name, h) =
  let problem = S.Hypergraph h in
  let stages = List.length roster in
  let instance_budget = B.of_spec budget in
  B.start instance_budget;
  let runs, seconds =
    Hd_engine.Clock.time @@ fun () ->
    List.mapi
      (fun i solver_name ->
        (* cut at the member's start: earlier members' unspent time
           rolls over to it *)
        let share = B.sub ~stages:(stages - i) instance_budget in
        let r = Hd_engine.Engine.run_by_name ~seed solver_name share problem in
        let lb, ub = S.bounds_of r.S.outcome in
        let exact = match r.S.outcome with S.Exact _ -> true | _ -> false in
        { solver = solver_name; lb; ub; exact; seconds = r.S.elapsed })
      roster
  in
  let w = pick_winner runs in
  Obs.Counter.incr c_swept;
  if w.exact then Obs.Counter.incr c_exact else Obs.Counter.incr c_timeouts;
  Obs.Counter.incr (Obs.Counter.make ("corpus.winner." ^ w.solver));
  {
    collection;
    name;
    vertices = Hypergraph.n_vertices h;
    edges = Hypergraph.n_edges h;
    runs;
    winner = w.solver;
    width = w.ub;
    exact = w.exact;
    seconds;
  }

let sweep_loaded ?(jobs = 1) ?(roster = default_roster)
    ?(budget = default_budget) ?(seed = 1) ?(skipped = []) instances =
  if roster = [] then invalid_arg "Sweep.sweep_loaded: empty roster";
  ensure_registries ();
  (match List.filter (fun n -> S.find n = None) roster with
  | [] -> ()
  | missing ->
      invalid_arg
        (Printf.sprintf "Sweep.sweep_loaded: unknown solver(s) %s (registered: %s)"
           (String.concat ", " missing)
           (String.concat ", " (S.names ()))));
  let solve = solve_instance ~roster ~budget ~seed in
  let rows =
    Hd_engine.Scheduler.with_scheduler ~workers:(jobs - 1) (fun s ->
        Hd_engine.Scheduler.map_array s solve (Array.of_list instances))
    |> Array.to_list
  in
  { roster; jobs = max 1 jobs; budget; rows; skipped }

let sweep ?jobs ?roster ?budget ?seed entries =
  let loaded, skipped = load entries in
  sweep_loaded ?jobs ?roster ?budget ?seed ~skipped
    (List.map
       (fun ((e : Manifest.entry), h) -> (e.Manifest.collection, e.Manifest.name, h))
       loaded)

let summarise report =
  let coverage = Array.make 5 0 in
  let gt5 = ref 0 and exact_count = ref 0 and timeouts = ref 0 in
  List.iter
    (fun row ->
      if row.exact then incr exact_count else incr timeouts;
      if row.width >= 1 && row.width <= 5 then
        coverage.(row.width - 1) <- coverage.(row.width - 1) + 1
      else incr gt5)
    report.rows;
  let winners =
    List.map
      (fun s ->
        (s, List.length (List.filter (fun r -> r.winner = s) report.rows)))
      report.roster
  in
  {
    total = List.length report.rows;
    exact_count = !exact_count;
    timeouts = !timeouts;
    skipped_count = List.length report.skipped;
    coverage;
    gt5 = !gt5;
    winners;
  }

let json_of_budget (b : B.spec) =
  Obs.Json.Obj
    [
      ( "time_limit_seconds",
        match b.B.time_limit with
        | Some t -> Obs.Json.Float t
        | None -> Obs.Json.Null );
      ( "max_states",
        match b.B.max_states with
        | Some n -> Obs.Json.Int n
        | None -> Obs.Json.Null );
    ]

let json_of_row row =
  Obs.Json.Obj
    [
      ("collection", Obs.Json.String row.collection);
      ("instance", Obs.Json.String row.name);
      ("vertices", Obs.Json.Int row.vertices);
      ("edges", Obs.Json.Int row.edges);
      ("width", Obs.Json.Int row.width);
      ("exact", Obs.Json.Bool row.exact);
      ("winner", Obs.Json.String row.winner);
      ("seconds", Obs.Json.Float row.seconds);
      ( "solvers",
        Obs.Json.List
          (List.map
             (fun r ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String r.solver);
                   ("lb", Obs.Json.Int r.lb);
                   ("ub", Obs.Json.Int r.ub);
                   ("exact", Obs.Json.Bool r.exact);
                   ("seconds", Obs.Json.Float r.seconds);
                 ])
             row.runs) );
    ]

let to_json report =
  let s = summarise report in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "hd_corpus/sweep/1");
      ("roster", Obs.Json.List (List.map (fun n -> Obs.Json.String n) report.roster));
      ("jobs", Obs.Json.Int report.jobs);
      ("budget", json_of_budget report.budget);
      ("instances", Obs.Json.List (List.map json_of_row report.rows));
      ( "skipped",
        Obs.Json.List
          (List.map
             (fun (path, msg) ->
               Obs.Json.Obj
                 [
                   ("path", Obs.Json.String path);
                   ("error", Obs.Json.String msg);
                 ])
             report.skipped) );
      ( "summary",
        Obs.Json.Obj
          [
            ("count", Obs.Json.Int s.total);
            ("exact", Obs.Json.Int s.exact_count);
            ("timeouts", Obs.Json.Int s.timeouts);
            ("skipped", Obs.Json.Int s.skipped_count);
            ( "coverage",
              Obs.Json.Obj
                (List.init 5 (fun i ->
                     (Printf.sprintf "width_%d" (i + 1),
                      Obs.Json.Int s.coverage.(i)))
                @ [ ("width_gt_5", Obs.Json.Int s.gt5) ]) );
            ( "ghw_le_5_share",
              Obs.Json.Float
                (if s.total = 0 then 0.0
                 else
                   float_of_int (s.total - s.gt5) /. float_of_int s.total) );
            ( "winners",
              Obs.Json.Obj
                (List.map (fun (n, c) -> (n, Obs.Json.Int c)) s.winners) );
          ] );
    ]

let print report =
  Printf.printf "%-10s %-14s %5s %5s | %6s %-14s %8s | per-solver ub\n"
    "collection" "instance" "V" "H" "width" "winner" "time";
  List.iter
    (fun row ->
      let marks =
        String.concat "  "
          (List.map
             (fun r ->
               Printf.sprintf "%s:%d%s" r.solver r.ub
                 (if r.exact then "*" else ""))
             row.runs)
      in
      Printf.printf "%-10s %-14s %5d %5d | %5d%s %-14s %7.2fs | %s\n"
        row.collection row.name row.vertices row.edges row.width
        (if row.exact then "*" else " ")
        row.winner row.seconds marks)
    report.rows;
  List.iter
    (fun (path, msg) -> Printf.printf "skipped %s: %s\n" path msg)
    report.skipped;
  let s = summarise report in
  Printf.printf
    "\n%d instances: %d exact, %d timeouts, %d skipped\n" s.total
    s.exact_count s.timeouts s.skipped_count;
  Printf.printf "width histogram:";
  Array.iteri (fun i c -> Printf.printf "  %d:%d" (i + 1) c) s.coverage;
  Printf.printf "  >5:%d   (ghw<=5 share %.1f%%)\n" s.gt5
    (if s.total = 0 then 0.0
     else 100.0 *. float_of_int (s.total - s.gt5) /. float_of_int s.total);
  Printf.printf "winners:";
  List.iter (fun (n, c) -> Printf.printf "  %s:%d" n c) s.winners;
  print_newline ()
