(* hd_decompose: compute tree / generalized hypertree decompositions of
   graphs and hypergraphs with any of the library's methods. *)

module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module St = Hd_search.Search_types

type input = G of Graph.t | H of Hypergraph.t

let load ~instance ~graph_file ~hypergraph_file =
  match (instance, graph_file, hypergraph_file) with
  | Some name, None, None -> (
      match Hd_instances.Graphs.by_name name with
      | Some g -> Ok (G g)
      | None -> (
          match Hd_instances.Hypergraphs.by_name name with
          | Some h -> Ok (H h)
          | None -> Error (Printf.sprintf "unknown instance %S" name)))
  | None, Some path, None -> Ok (G (Hd_graph.Dimacs.parse_file path))
  | None, None, Some path -> Ok (H (Hd_hypergraph.Hg_format.parse_file path))
  | _ -> Error "give exactly one of --instance, --graph, --hypergraph"

let hypergraph_of = function G g -> Hypergraph.of_graph g | H h -> h
let primal_of = function G g -> g | H h -> Hypergraph.primal h

(* the portfolio and sweep take a passive spec; a single solver run
   takes a fresh budget, built at each call so no clock is shared *)
let budget time_limit = { Hd_engine.Budget.time_limit; max_states = None }
let within time_limit = Hd_engine.Budget.create ?time_limit ()

let report_search label (result : St.result) =
  Format.printf "%s: %a  (visited %d, generated %d, %.2fs)@." label
    St.pp_outcome result.St.outcome result.St.visited result.St.generated
    result.St.elapsed;
  result.St.ordering

let report_ga label (r : Hd_ga.Ga_engine.report) =
  Format.printf
    "%s: width %d  (%d iterations, %d evaluations, %.2fs)@." label
    r.Hd_ga.Ga_engine.best r.Hd_ga.Ga_engine.iterations
    r.Hd_ga.Ga_engine.evaluations r.Hd_ga.Ga_engine.elapsed;
  Some r.Hd_ga.Ga_engine.best_individual

let report_portfolio label (r : Hd_parallel.Portfolio.t) =
  Format.printf "%s: %a  (%d domains%s, %.2fs)@." label St.pp_outcome
    r.Hd_parallel.Portfolio.outcome r.Hd_parallel.Portfolio.domains
    (match r.Hd_parallel.Portfolio.winner with
    | Some w -> ", won by " ^ w
    | None -> "")
    r.Hd_parallel.Portfolio.elapsed;
  List.iter
    (fun (m : Hd_parallel.Portfolio.member_report) ->
      Format.printf "  %-16s %a  (%.2fs)@." m.Hd_parallel.Portfolio.member
        St.pp_outcome m.Hd_parallel.Portfolio.outcome
        m.Hd_parallel.Portfolio.elapsed)
    r.Hd_parallel.Portfolio.members;
  r.Hd_parallel.Portfolio.ordering

let ensure_registry () =
  Hd_search.Solvers.ensure ();
  Hd_ga.Solvers.ensure ();
  Hd_parallel.Par_solvers.ensure ()

(* --corpus DIR: sweep every instance file under DIR (or materialise a
   bundled collection by name) instead of decomposing one input *)
let run_corpus ~dir ~solvers ~jobs ~time_limit ~seed =
  let entries =
    if Sys.file_exists dir && Sys.is_directory dir then
      Hd_corpus.Manifest.scan dir
    else if List.mem dir (Hd_corpus.Manifest.bundled_collections ()) then
      Hd_corpus.Manifest.ensure ~root:"_corpus" dir
    else begin
      Printf.eprintf
        "hd_decompose: --corpus %s: not a directory and not a bundled \
         collection (bundled: %s)\n"
        dir
        (String.concat ", " (Hd_corpus.Manifest.bundled_collections ()));
      exit 2
    end
  in
  if entries = [] then begin
    Printf.eprintf "hd_decompose: --corpus %s: no instance files (%s)\n" dir
      (String.concat " " Hd_corpus.Manifest.instance_extensions);
    exit 2
  end;
  let roster = match solvers with [] -> None | names -> Some names in
  let report =
    try
      Hd_corpus.Sweep.sweep ~jobs ?roster ~budget:(budget time_limit) ~seed
        entries
    with Invalid_argument msg ->
      prerr_endline ("hd_decompose: " ^ msg);
      exit 2
  in
  Hd_corpus.Sweep.print report

let run input method_ ~jobs ~portfolio ~solvers time_limit seed population
    iterations print_decomposition output =
  match load ~instance:input.(0) ~graph_file:input.(1) ~hypergraph_file:input.(2)
  with
  | Error msg ->
      prerr_endline ("hd_decompose: " ^ msg);
      exit 2
  | Ok data -> (
      (* -j sizes the shared work-stealing scheduler (before first
         use) and lets Engine.run fork biconnected blocks through it;
         the -par solver variants pick the same instance up *)
      if jobs > 1 then begin
        Hd_parallel.Scheduler.set_default_workers (jobs - 1);
        Hd_parallel.Scheduler.install_engine_runner
          (Hd_parallel.Scheduler.shared ())
      end;
      let g = primal_of data in
      let h = hypergraph_of data in
      Format.printf "input: %d vertices, %d hyperedges (primal: %d edges)@."
        (Hypergraph.n_vertices h) (Hypergraph.n_edges h) (Graph.m g);
      let ga_config =
        Hd_ga.Ga_engine.default_config ~population_size:population
          ~max_iterations:iterations ~seed ()
      in
      (* what the witness ordering (if any) should be evaluated as:
         bags for tw, exact covers for ghw, exact LP covers for fhw *)
      let wkind = ref `Tw in
      let ordering =
        match solvers with
        | _ :: _ as names -> (
            (* registry path: run the named engine solver(s), racing
               them as an ad-hoc portfolio when several are given *)
            ensure_registry ();
            (match
               List.filter (fun n -> Hd_engine.Solver.find n = None) names
             with
            | [] -> ()
            | missing ->
                Printf.eprintf
                  "hd_decompose: unknown solver%s %s (available: %s)\n"
                  (if List.length missing > 1 then "s" else "")
                  (String.concat ", " missing)
                  (String.concat ", " (Hd_engine.Solver.names ()));
                exit 2);
            let all_of k =
              List.for_all
                (fun n ->
                  match Hd_engine.Solver.find n with
                  | Some s -> s.Hd_engine.Solver.kind = k
                  | None -> false)
                names
            in
            wkind :=
              if all_of Hd_engine.Solver.Tw then `Tw
              else if all_of Hd_engine.Solver.Fhw then `Fhw
              else `Ghw;
            let problem =
              match data with
              | G g -> Hd_engine.Solver.Graph g
              | H h -> Hd_engine.Solver.Hypergraph h
            in
            match names with
            | [ name ] ->
                report_search name
                  (Hd_engine.Engine.run_by_name ~seed name (within time_limit)
                     problem)
            | names ->
                report_portfolio "portfolio"
                  (Hd_parallel.Portfolio.solve_named
                     ?jobs:(if jobs > 1 then Some jobs else None)
                     ~budget:(budget time_limit) ~seed ~names problem))
        | [] ->
        if portfolio then
          (* race the solver roster on [jobs] domains; the objective
             follows the input: treewidth for graphs, ghw for
             hypergraphs *)
          match data with
          | G g ->
              report_portfolio "portfolio-tw"
                (Hd_parallel.Portfolio.solve_tw ~jobs
                   ~budget:(budget time_limit) ~seed g)
          | H h ->
              wkind := `Ghw;
              report_portfolio "portfolio-ghw"
                (Hd_parallel.Portfolio.solve_ghw ~jobs
                   ~budget:(budget time_limit) ~seed h)
        else
        match method_ with
        | `Astar_tw ->
            report_search "A*-tw"
              (Hd_search.Astar_tw.solve ~within:(within time_limit) ~seed g)
        | `Bb_tw ->
            report_search "BB-tw"
              (Hd_search.Bb_tw.solve ~within:(within time_limit) ~seed g)
        | `Astar_ghw ->
            wkind := `Ghw;
            report_search "A*-ghw"
              (Hd_search.Astar_ghw.solve ~within:(within time_limit) ~seed h)
        | `Bb_ghw ->
            wkind := `Ghw;
            report_search "BB-ghw"
              (Hd_search.Bb_ghw.solve ~within:(within time_limit) ~seed h)
        | `Ga_tw ->
            report_ga "GA-tw"
              (Hd_ga.Ga_tw.run ~within:(within time_limit) ga_config g)
        | `Ga_ghw ->
            wkind := `Ghw;
            report_ga "GA-ghw"
              (Hd_ga.Ga_ghw.run ~within:(within time_limit) ga_config h)
        | `Saiga ->
            wkind := `Ghw;
            let config =
              Hd_ga.Saiga_ghw.default_config
                ~n_islands:(if jobs > 1 then jobs else 4)
                ~seed ()
            in
            (* -j 1: the sequential round-robin islands of Section 7.2;
               -j N>1: one scheduler executor per island, ring-buffer
               migration *)
            let r =
              let within = within time_limit in
              if jobs > 1 then Hd_parallel.Saiga_par.run ~within config h
              else Hd_ga.Saiga_ghw.run ~within config h
            in
            Format.printf "SAIGA-ghw%s: width %d  (%d epochs, %d evaluations, %.2fs)@."
              (if jobs > 1 then Printf.sprintf " (%d islands, parallel)" jobs
               else "")
              r.Hd_ga.Saiga_ghw.best r.Hd_ga.Saiga_ghw.epochs
              r.Hd_ga.Saiga_ghw.evaluations r.Hd_ga.Saiga_ghw.elapsed;
            Some r.Hd_ga.Saiga_ghw.best_individual
        | `Min_fill ->
            let rng = Random.State.make [| seed |] in
            let sigma = Hd_core.Ordering_heuristics.min_fill rng g in
            let ws = Hd_core.Eval.of_graph g in
            Format.printf "min-fill: treewidth upper bound %d@."
              (Hd_core.Eval.tw_width ws sigma);
            Some sigma
        | `Sa ->
            let r =
              Hd_ga.Local_search.sa_tw ~within:(within time_limit)
                (Hd_ga.Local_search.default_config ~seed ())
                g
            in
            Format.printf "SA-tw: width %d  (%d steps, %.2fs)@."
              r.Hd_ga.Local_search.best r.Hd_ga.Local_search.steps
              r.Hd_ga.Local_search.elapsed;
            Some r.Hd_ga.Local_search.best_individual
        | `Preprocess ->
            report_search "A*-tw+preprocess"
              (Hd_search.Preprocess.treewidth_with_preprocessing
                 ~within:(within time_limit) ~seed g)
        | `Fhw ->
            wkind := `Fhw;
            let r = Hd_search.Bb_fhw.solve ~within:(within time_limit) ~seed h in
            (match r.Hd_search.Bb_fhw.outcome_q with
            | Hd_search.Bb_fhw.Exact_q q ->
                Format.printf "BB-fhw: fhw = %s (exact)  (visited %d, generated %d, %.2fs)@."
                  (Hd_lp.Rat.to_string q) r.Hd_search.Bb_fhw.visited
                  r.Hd_search.Bb_fhw.generated r.Hd_search.Bb_fhw.elapsed
            | Hd_search.Bb_fhw.Bounds_q { lb; ub } ->
                Format.printf "BB-fhw: fhw in [%s, %s]  (visited %d, generated %d, %.2fs)@."
                  (Hd_lp.Rat.to_string lb) (Hd_lp.Rat.to_string ub)
                  r.Hd_search.Bb_fhw.visited r.Hd_search.Bb_fhw.generated
                  r.Hd_search.Bb_fhw.elapsed);
            r.Hd_search.Bb_fhw.ordering
        | `Hw ->
            wkind := `Ghw;
            (try
               let w, hd =
                 Hd_search.Det_k_decomp.hypertree_width
                   ~within:(within time_limit) h
               in
               Format.printf "det-k-decomp: hypertree width %d (valid %b)@." w
                 (Hd_search.Det_k_decomp.valid h hd);
               if print_decomposition then Format.printf "%a@." (Ghd.pp h) hd;
               match output with
               | Some path ->
                   Hd_core.Ghd_io.write_file path
                     ~n_vertices:(Hypergraph.n_vertices h)
                     ~n_edges:(Hypergraph.n_edges h) hd;
                   Format.printf "wrote %s (.ghd format)@." path
               | None -> ()
             with Hd_search.Det_k_decomp.Timeout _ ->
               Format.printf "det-k-decomp: time limit exceeded@.");
            None
        | `Analyze ->
            wkind := `Ghw;
            let report =
              Hd_search.Widths.analyze
                ?within:(Option.map (fun t -> within (Some t)) time_limit)
                ~seed h
            in
            Format.printf "%a@." Hd_search.Widths.pp report;
            None
        | `Bounds ->
            let rng = Random.State.make [| seed |] in
            Format.printf "treewidth lower bound: %d@."
              (Hd_bounds.Lower_bounds.treewidth ~rng g);
            Format.printf "ghw lower bound (tw-ksc-width): %d@."
              (Hd_bounds.Lower_bounds.ghw ~rng h);
            None
      in
      match ordering with
      | None -> ()
      | Some sigma -> (
          match !wkind with
          | `Tw -> (
              let td = Td.of_ordering g sigma in
              Format.printf "witness tree decomposition: width %d, valid %b@."
                (Td.width td) (Td.valid_for_graph g td);
              if print_decomposition then Format.printf "%a@." Td.pp td;
              match output with
              | Some path ->
                  Hd_core.Td_io.write_file path ~n_vertices:(Graph.n g)
                    (Td.simplify td);
                  Format.printf "wrote %s (PACE .td format)@." path
              | None -> ())
          | `Fhw -> (
              (* the exact rational lives in the witness ordering: the
                 registry only carries its ceiling *)
              let ws = Hd_core.Eval.of_hypergraph h in
              let q = Hd_core.Eval.fhw_width_q ws sigma in
              Format.printf
                "witness ordering: exact fractional width %s (fhw <= %s)@."
                (Hd_lp.Rat.to_string q) (Hd_lp.Rat.to_string q);
              match output with
              | Some path ->
                  let td = Td.of_ordering g sigma in
                  Hd_core.Td_io.write_file path ~n_vertices:(Graph.n g)
                    (Td.simplify td);
                  Format.printf "wrote %s (PACE .td format)@." path
              | None -> ())
          | `Ghw ->
              let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
              Format.printf
                "witness generalized hypertree decomposition: width %d, valid %b@."
                (Ghd.width ghd) (Ghd.valid h ghd);
              if print_decomposition then Format.printf "%a@." (Ghd.pp h) ghd))

open Cmdliner

let instance =
  Arg.(value & opt (some string) None & info [ "i"; "instance" ] ~doc:"Named benchmark instance (see hd_decompose --list).")

let instance_pos =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"INSTANCE" ~doc:"Named benchmark instance (same as $(b,--instance)).")

let graph_file =
  Arg.(value & opt (some file) None & info [ "graph" ] ~doc:"DIMACS graph file.")

let hypergraph_file =
  Arg.(value & opt (some file) None & info [ "hypergraph" ] ~doc:"Hypergraph file (atom format).")

let method_ =
  let methods =
    [
      ("astar-tw", `Astar_tw);
      ("bb-tw", `Bb_tw);
      ("astar-ghw", `Astar_ghw);
      ("bb-ghw", `Bb_ghw);
      ("ga-tw", `Ga_tw);
      ("ga-ghw", `Ga_ghw);
      ("saiga", `Saiga);
      ("min-fill", `Min_fill);
      ("sa", `Sa);
      ("preprocess", `Preprocess);
      ("fhw", `Fhw);
      ("hw", `Hw);
      ("analyze", `Analyze);
      ("bounds", `Bounds);
    ]
  in
  Arg.(
    value
    & opt (enum methods) `Bb_ghw
    & info [ "m"; "method" ] ~doc:"Decomposition method.")

let time_limit =
  Arg.(value & opt (some float) (Some 30.0) & info [ "t"; "time-limit" ] ~doc:"Time limit in seconds.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let jobs =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains: portfolio members raced by $(b,--portfolio), \
           islands run in parallel by $(b,-m saiga).  1 (the default) stays \
           sequential.")

let portfolio =
  Arg.(
    value & flag
    & info [ "portfolio" ]
        ~doc:
          "Race complementary solvers on $(b,-j) domains sharing one \
           incumbent (treewidth roster for graphs, ghw roster for \
           hypergraphs) instead of running a single $(b,--method).")

let population =
  Arg.(value & opt int 200 & info [ "population" ] ~doc:"GA population size.")

let iterations =
  Arg.(value & opt int 500 & info [ "iterations" ] ~doc:"GA iteration count.")

let print_decomposition =
  Arg.(value & flag & info [ "p"; "print" ] ~doc:"Print the decomposition.")

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List named instances and exit.")

let solver =
  Arg.(
    value
    & opt (some string) None
    & info [ "solver" ] ~docv:"NAME[,NAME...]"
        ~doc:
          "Run the named solver(s) from the engine registry (see \
           $(b,--list-solvers)) instead of $(b,--method).  Several \
           comma-separated names race as a portfolio sharing one incumbent.")

let list_solvers_flag =
  Arg.(
    value & flag
    & info [ "list-solvers" ]
        ~doc:"List the registered engine solvers and exit.")

let corpus =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Batch mode: sweep every instance file ($(b,.hg), $(b,.cq), \
           $(b,.txt)) under directory $(docv), racing the $(b,--solver) \
           roster (default: the ghw roster) on $(b,-j) worker domains under \
           a $(b,-t) per-instance budget, and print the width/time/winner \
           table.  $(docv) may also name a bundled collection (e.g. \
           $(b,csp-synth)), materialised under _corpus/ first.")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~doc:"Write the tree decomposition to a PACE .td file.")

let stats =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Collect hd_obs counters and spans during the run and write the \
           JSON report to $(docv) ($(b,-) or no value: stdout).")

let main instance instance_pos graph_file hypergraph_file method_ jobs
    portfolio solver corpus time_limit seed population iterations
    print_decomposition list_flag list_solvers_flag output stats =
  if list_solvers_flag then begin
    ensure_registry ();
    (* grouped by the width measure each solver optimises *)
    let all = Hd_engine.Solver.all () in
    List.iter
      (fun kind ->
        match
          List.filter (fun s -> s.Hd_engine.Solver.kind = kind) all
        with
        | [] -> ()
        | members ->
            Printf.printf "%s:\n" (Hd_engine.Solver.kind_name kind);
            List.iter
              (fun (s : Hd_engine.Solver.t) ->
                Printf.printf "  %-16s %s\n" s.Hd_engine.Solver.name
                  s.Hd_engine.Solver.doc)
              members)
      [
        Hd_engine.Solver.Tw;
        Hd_engine.Solver.Ghw;
        Hd_engine.Solver.Fhw;
        Hd_engine.Solver.Hw;
      ]
  end
  else if list_flag then begin
    print_endline "graphs:";
    List.iter
      (fun (n, v, e) -> Printf.printf "  %-12s %5d vertices %6d edges\n" n v e)
      Hd_instances.Graphs.names;
    print_endline "hypergraphs:";
    List.iter
      (fun (n, v, e) -> Printf.printf "  %-12s %5d vertices %6d edges\n" n v e)
      Hd_instances.Hypergraphs.names
  end
  else begin
    match corpus with
    | Some dir ->
        if stats <> None then Hd_obs.Obs.enable ();
        let solvers =
          match solver with
          | None -> []
          | Some s ->
              String.split_on_char ',' s |> List.map String.trim
              |> List.filter (fun n -> n <> "")
        in
        run_corpus ~dir ~solvers ~jobs ~time_limit ~seed;
        (match stats with
        | Some path -> (
            try Hd_obs.Obs.write_report path
            with Sys_error msg ->
              prerr_endline ("hd_decompose: --stats: " ^ msg);
              exit 2)
        | None -> ())
    | None ->
    let instance = match instance with Some _ -> instance | None -> instance_pos in
    (* convenience: `--stats queen5_5` — cmdliner binds the instance name
       to --stats's optional FILE value; if that value names a known
       instance and no instance was given otherwise, reinterpret it and
       send the report to stdout *)
    let instance, stats =
      match (instance, graph_file, hypergraph_file, stats) with
      | None, None, None, Some s
        when Hd_instances.Graphs.by_name s <> None
             || Hd_instances.Hypergraphs.by_name s <> None ->
          (Some s, Some "-")
      | _ -> (instance, stats)
    in
    if stats <> None then Hd_obs.Obs.enable ();
    let solvers =
      match solver with
      | None -> []
      | Some s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun n -> n <> "")
    in
    run
      [| instance; graph_file; hypergraph_file |]
      method_ ~jobs ~portfolio ~solvers time_limit seed population iterations
      print_decomposition output;
    match stats with
    | Some path -> (
        try Hd_obs.Obs.write_report path
        with Sys_error msg ->
          prerr_endline ("hd_decompose: --stats: " ^ msg);
          exit 2)
    | None -> ()
  end

let cmd =
  let doc = "tree and generalized hypertree decompositions" in
  Cmd.v
    (Cmd.info "hd_decompose" ~doc)
    Term.(
      const main $ instance $ instance_pos $ graph_file $ hypergraph_file
      $ method_ $ jobs $ portfolio $ solver $ corpus $ time_limit $ seed
      $ population $ iterations $ print_decomposition $ list_flag
      $ list_solvers_flag $ output $ stats)

let () = exit (Cmd.eval cmd)
