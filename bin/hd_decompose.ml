(* hd_decompose: compute tree / generalized hypertree decompositions of
   graphs and hypergraphs with any solver of the engine registry. *)

module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module Solver = Hd_engine.Solver

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
  | None, Some path, None -> (
      try Ok (G (Hd_graph.Dimacs.parse_file path)) with
      | Failure msg -> Error (path ^ ": " ^ msg)
      | Sys_error msg -> Error msg)
  | None, None, Some path -> (
      (* the format's errors name the file and line *)
      try Ok (H (Hd_hypergraph.Hg_format.parse_file path))
      with Failure msg | Sys_error msg -> Error msg)
  | _ -> Error "give exactly one of --instance, --graph, --hypergraph"

let hypergraph_of = function G g -> Hypergraph.of_graph g | H h -> h
let primal_of = function G g -> g | H h -> Hypergraph.primal h

(* the portfolio and sweep take a passive spec; a single solver run
   takes a fresh budget, built at each call so no clock is shared, and
   carrying the run's scheduler when there is one *)
let budget time_limit = { Hd_engine.Budget.time_limit; max_states = None }

let within ?scheduler time_limit =
  Hd_engine.Budget.create ?time_limit ?scheduler ()

(* -j N > 1: one scheduler with N - 1 workers for this run, which the
   budget hands to block solves and the -par solvers; -j 1 creates
   none, so the run stays on this domain *)
let with_jobs jobs f =
  if jobs > 1 then
    Hd_engine.Scheduler.with_scheduler ~workers:(jobs - 1) (fun s ->
        f (Some s))
  else f None

let report_search label (result : Solver.result) =
  Format.printf "%s: %a  (visited %d, generated %d, %.2fs)@." label
    Solver.pp_outcome result.Solver.outcome result.Solver.visited
    result.Solver.generated result.Solver.elapsed;
  result.Solver.ordering

let report_portfolio label (r : Hd_parallel.Portfolio.t) =
  Format.printf "%s: %a  (%d domains%s, %.2fs)@." label Solver.pp_outcome
    r.Hd_parallel.Portfolio.outcome r.Hd_parallel.Portfolio.domains
    (match r.Hd_parallel.Portfolio.winner with
    | Some w -> ", won by " ^ w
    | None -> "")
    r.Hd_parallel.Portfolio.elapsed;
  List.iter
    (fun (m : Hd_parallel.Portfolio.member_report) ->
      Format.printf "  %-16s %a  (%.2fs)@." m.Hd_parallel.Portfolio.member
        Solver.pp_outcome m.Hd_parallel.Portfolio.outcome
        m.Hd_parallel.Portfolio.elapsed)
    r.Hd_parallel.Portfolio.members;
  r.Hd_parallel.Portfolio.ordering

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

(* the witness step, by the solvers' registered kind: a tw ordering
   gives bags, a ghw ordering exact covers, an fhw ordering exact LP
   covers; hw solvers leave no ordering, so an exact hw is materialised
   by det-k-decomp at that width *)
let witness ~time_limit ~print_decomposition ~output g h kind outcome ordering =
  let write_td sigma path =
    Hd_core.Td_io.write_file path ~n_vertices:(Graph.n g)
      (Td.simplify (Td.of_ordering g sigma));
    Format.printf "wrote %s (PACE .td format)@." path
  in
  match (kind, outcome, ordering) with
  | Hd_engine.Solver.Hw, Solver.Exact w, _ -> (
      match
        Hd_search.Det_k_decomp.decide ~within:(within time_limit) h ~k:w
      with
      | Some hd -> (
          Format.printf "det-k-decomp: hypertree width %d (valid %b)@." w
            (Hd_search.Det_k_decomp.valid h hd);
          if print_decomposition then Format.printf "%a@." (Ghd.pp h) hd;
          match output with
          | Some path ->
              Hd_core.Ghd_io.write_file path
                ~n_vertices:(Hypergraph.n_vertices h)
                ~n_edges:(Hypergraph.n_edges h) hd;
              Format.printf "wrote %s (.ghd format)@." path
          | None -> ())
      | None -> Format.printf "det-k-decomp: no decomposition of width %d@." w
      | exception Hd_search.Det_k_decomp.Timeout _ ->
          Format.printf "det-k-decomp: time limit exceeded@.")
  | Hd_engine.Solver.Hw, Solver.Bounds _, _ | _, _, None -> ()
  | Hd_engine.Solver.Tw, _, Some sigma ->
      let td = Td.of_ordering g sigma in
      Format.printf "witness tree decomposition: width %d, valid %b@."
        (Td.width td) (Td.valid_for_graph g td);
      if print_decomposition then Format.printf "%a@." Td.pp td;
      Option.iter (write_td sigma) output
  | Hd_engine.Solver.Fhw, _, Some sigma ->
      (* the exact rational lives in the witness ordering: the registry
         only carries its ceiling *)
      let q =
        Hd_core.Eval.fhw_width_q (Hd_core.Eval.of_hypergraph h) sigma
      in
      Format.printf "witness ordering: exact fractional width %s (fhw <= %s)@."
        (Hd_lp.Rat.to_string q) (Hd_lp.Rat.to_string q);
      Option.iter (write_td sigma) output
  | Hd_engine.Solver.Ghw, _, Some sigma ->
      let ghd = Ghd.of_ordering h sigma ~cover:`Exact in
      Format.printf
        "witness generalized hypertree decomposition: width %d, valid %b@."
        (Ghd.width ghd) (Ghd.valid h ghd);
      if print_decomposition then Format.printf "%a@." (Ghd.pp h) ghd

let run input names ~jobs ~portfolio time_limit seed print_decomposition output =
  match load ~instance:input.(0) ~graph_file:input.(1) ~hypergraph_file:input.(2)
  with
  | Error msg ->
      prerr_endline ("hd_decompose: " ^ msg);
      exit 2
  | Ok data -> (
      let g = primal_of data in
      let h = hypergraph_of data in
      Format.printf "input: %d vertices, %d hyperedges (primal: %d edges)@."
        (Hypergraph.n_vertices h) (Hypergraph.n_edges h) (Graph.m g);
      let witness = witness ~time_limit ~print_decomposition ~output g h in
      match names with
      | [ "analyze" ] ->
          with_jobs jobs @@ fun scheduler ->
          Format.printf "%a@." Hd_search.Widths.pp
            (Hd_search.Widths.analyze
               ?within:
                 (Option.map (fun t -> within ?scheduler (Some t)) time_limit)
               ~seed h)
      | [ "bounds" ] ->
          let rng = Random.State.make [| seed |] in
          Format.printf "treewidth lower bound: %d@."
            (Hd_bounds.Lower_bounds.treewidth ~rng g);
          Format.printf "ghw lower bound (tw-ksc-width): %d@."
            (Hd_bounds.Lower_bounds.ghw ~rng h)
      | [] when portfolio -> (
          (* race the solver roster on [jobs] domains; the objective
             follows the input: treewidth for graphs, ghw for
             hypergraphs *)
          match data with
          | G g ->
              let r =
                Hd_parallel.Portfolio.solve_tw ~jobs ~budget:(budget time_limit)
                  ~seed g
              in
              witness Hd_engine.Solver.Tw r.Hd_parallel.Portfolio.outcome
                (report_portfolio "portfolio-tw" r)
          | H h ->
              let r =
                Hd_parallel.Portfolio.solve_ghw ~jobs
                  ~budget:(budget time_limit) ~seed h
              in
              witness Hd_engine.Solver.Ghw r.Hd_parallel.Portfolio.outcome
                (report_portfolio "portfolio-ghw" r))
      | names -> (
          let names = if names = [] then [ "bb-ghw" ] else names in
          let kinds =
            List.map
              (fun n ->
                match Hd_engine.Solver.find n with
                | Some s -> s.Hd_engine.Solver.kind
                | None ->
                    Printf.eprintf
                      "hd_decompose: unknown solver %s (available: %s, \
                       analyze, bounds)\n"
                      n
                      (String.concat ", " (Hd_engine.Solver.names ()));
                    exit 2)
              names
          in
          (* one kind for the whole race, else ghw covers *)
          let kind =
            match kinds with
            | k :: rest when List.for_all (( = ) k) rest -> k
            | _ -> Hd_engine.Solver.Ghw
          in
          let problem =
            match data with
            | G g -> Hd_engine.Solver.Graph g
            | H h -> Hd_engine.Solver.Hypergraph h
          in
          match names with
          | [ name ] ->
              let r =
                with_jobs jobs @@ fun scheduler ->
                Hd_engine.Engine.run_by_name ~seed name
                  (within ?scheduler time_limit)
                  problem
              in
              witness kind r.Solver.outcome (report_search name r)
          | names ->
              let r =
                Hd_parallel.Portfolio.solve_named
                  ?jobs:(if jobs > 1 then Some jobs else None)
                  ~budget:(budget time_limit) ~seed ~names problem
              in
              witness kind r.Hd_parallel.Portfolio.outcome
                (report_portfolio "portfolio" r)))

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
  Arg.(
    value
    & opt (some string) None
    & info [ "m"; "method"; "solver" ] ~docv:"NAME[,NAME...]"
        ~doc:
          "Run the named solver(s) from the engine registry (see \
           $(b,--list-solvers)); several comma-separated names race as a \
           portfolio sharing one incumbent.  Two reserved values: \
           $(b,analyze) (the tw/ghw/fhw/hw ladder) and $(b,bounds) (lower \
           bounds).  Default: $(b,bb-ghw), or the ghw roster under \
           $(b,--corpus).")

let time_limit =
  Arg.(value & opt (some float) (Some 30.0) & info [ "t"; "time-limit" ] ~doc:"Time limit in seconds.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let jobs =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains: biconnected blocks solved at once, HDA* workers \
           and islands of the $(b,-par) solvers, portfolio members raced \
           by $(b,--portfolio) or several $(b,-m) names.  1 (the default) \
           stays sequential.")

let portfolio =
  Arg.(
    value & flag
    & info [ "portfolio" ]
        ~doc:
          "Race complementary solvers on $(b,-j) domains sharing one \
           incumbent (treewidth roster for graphs, ghw roster for \
           hypergraphs) instead of running $(b,-m).")

let print_decomposition =
  Arg.(value & flag & info [ "p"; "print" ] ~doc:"Print the decomposition.")

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List named instances and exit.")

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
           $(b,.txt)) under directory $(docv), racing the $(b,-m) \
           roster (default: the ghw roster) on $(b,-j) worker domains under \
           a $(b,-t) per-instance budget, and print the width/time/winner \
           table.  $(docv) may also name a bundled collection (e.g. \
           $(b,csp-synth)), materialised under _corpus/ first.")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ]
        ~doc:
          "Write the decomposition: a PACE .td file from a tw or fhw \
           witness, a .ghd file from an hw solver.")

let stats =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Collect hd_obs counters and spans during the run and write the \
           JSON report to $(docv) ($(b,-) or no value: stdout).")

let main instance instance_pos graph_file hypergraph_file method_ jobs
    portfolio corpus time_limit seed print_decomposition list_flag
    list_solvers_flag output stats =
  Hd_parallel.Registry.ensure ();
  let names =
    match method_ with
    | None -> []
    | Some s ->
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun n -> n <> "")
  in
  if list_solvers_flag then begin
    (* the table is grouped by the width measure each solver optimises:
       a header opens each group *)
    let last = ref None in
    List.iter
      (fun (s : Solver.t) ->
        if !last <> Some s.kind then begin
          last := Some s.kind;
          Printf.printf "%s:\n" (Solver.kind_name s.kind)
        end;
        Printf.printf "  %-16s %s\n" s.name s.doc)
      (Solver.all ())
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
        run_corpus ~dir ~solvers:names ~jobs ~time_limit ~seed;
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
    run
      [| instance; graph_file; hypergraph_file |]
      names ~jobs ~portfolio time_limit seed print_decomposition output;
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
      $ method_ $ jobs $ portfolio $ corpus $ time_limit $ seed
      $ print_decomposition $ list_flag $ list_solvers_flag $ output $ stats)

let () = exit (Cmd.eval cmd)
