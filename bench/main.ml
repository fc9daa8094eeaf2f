(* Experiment harness: regenerates every table and figure of the
   paper's evaluation at a configurable scale.

     dune exec bench/main.exe                 -- quick pass over all tables
     dune exec bench/main.exe -- table-5.1    -- one table
     dune exec bench/main.exe -- -t 60 -full table-5.1
                                              -- paper-size instance list,
                                                 60s per exact run
     dune exec bench/main.exe -- micro        -- Bechamel kernel benchmarks
     dune exec bench/main.exe -- ablation     -- design-choice ablations
     dune exec bench/main.exe -- -j 4 parallel
                                              -- portfolio race on 4 domains
     dune exec bench/main.exe -- -j 4 -states 20000 corpus
                                              -- deterministic mini-corpus
                                                 sweep on 4 domains
     dune exec bench/main.exe -- -states 20000 -baseline old.json corpus
                                              -- regression gate vs a
                                                 previous report (exit 3
                                                 on regressions)

   Results never match the paper's absolute numbers (different machine,
   scaled budgets); the tables print the paper's reported value next to
   ours so the shape comparison is immediate.  EXPERIMENTS.md records a
   full run.

   After writing BENCH_report.json the run exits 3 if a -baseline diff
   regressed, else 1 if any gate failed, else 0 (docs/BENCHMARKING.md). *)

open Harness

(* each experiment returns its report section and gate verdict
   (Harness.result); the paper tables only print *)
let experiments =
  let print_only f scale =
    f scale;
    printed
  in
  [
    ("table-5.1", print_only Tables.table_5_1);
    ("table-5.2", print_only Tables.table_5_2);
    ("table-6.1", print_only Tables.table_6_1);
    ("table-6.2", print_only Tables.table_6_2);
    ("table-6.3", print_only Tables.table_6_3);
    ("table-6.4", print_only Tables.table_6_4);
    ("table-6.5", print_only Tables.table_6_5);
    ("table-6.6", print_only Tables.table_6_6);
    ("table-7.1", print_only Tables.table_7_1);
    ("table-7.2", print_only Tables.table_7_2);
    ("table-8.1", print_only Tables.table_8_1);
    ("table-9.1", print_only Tables.table_9_1);
    ("figure-2", print_only Tables.figure_2);
    ("extension", print_only Tables.extension);
    ("scaling", print_only Tables.scaling);
    ("ordering", Ordering.run);
    ("engine", Engine.run);
    ("corpus", Corpus.run);
    ("widths", Widths.run);
    ("parallel", Parallel.run);
    ("query", Query.run);
    ("micro", print_only Tables.micro);
    ("ablation", print_only Tables.ablation);
  ]

let () =
  let scale = ref default_scale in
  let chosen = ref [] in
  let rec parse = function
    | [] -> ()
    | "-t" :: v :: rest ->
        scale := { !scale with time_limit = float_of_string v };
        parse rest
    | "-runs" :: v :: rest ->
        scale := { !scale with runs = int_of_string v };
        parse rest
    | "-pop" :: v :: rest ->
        scale := { !scale with population = int_of_string v };
        parse rest
    | "-iters" :: v :: rest ->
        scale := { !scale with iterations = int_of_string v };
        parse rest
    | "-j" :: v :: rest ->
        scale := { !scale with jobs = int_of_string v };
        parse rest
    | "-full" :: rest ->
        scale := { !scale with full = true };
        parse rest
    | "-states" :: v :: rest ->
        scale := { !scale with states = Some (int_of_string v) };
        parse rest
    | "-baseline" :: v :: rest ->
        scale := { !scale with baseline = Some v };
        parse rest
    | "-widths-only" :: rest ->
        scale := { !scale with widths_only = true };
        parse rest
    | name :: rest ->
        chosen := name :: !chosen;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let to_run =
    match !chosen with [] -> List.map fst experiments | names -> List.rev names
  in
  let runs =
    List.map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> record name (fun () -> f !scale)
        | None ->
            Printf.eprintf "unknown experiment %S; available: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
      to_run
  in
  write_bench_report runs;
  exit (exit_status (List.map snd runs))
