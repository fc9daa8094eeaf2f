(* hd_solve: solve CSPs through their decompositions, demonstrating the
   end-to-end pipeline of Section 2.4. *)

module Csp = Hd_csp.Csp
module Models = Hd_csp.Models
module Solver = Hd_csp.Solver

let build_problem = function
  | `Australia -> Models.australia ()
  | `Example5 -> Models.example5 ()
  | `Queens n -> Models.n_queens n
  | `Coloring (name, colors) -> (
      match Hd_instances.Graphs.by_name name with
      | Some g -> Models.graph_coloring g ~colors
      | None -> failwith (Printf.sprintf "unknown graph instance %S" name))
  | `Random seed ->
      Models.random_csp ~seed ~n_vars:20 ~domain_size:3 ~n_constraints:25
        ~arity:2 ~tightness:0.4

let describe csp assignment =
  let parts =
    List.init (Csp.n_variables csp) (fun v ->
        Printf.sprintf "%s=%d" (Csp.variable_name csp v) assignment.(v))
  in
  String.concat " " parts

let run problem strategy seed stats =
  if stats <> None then Hd_obs.Obs.enable ();
  let csp = build_problem problem in
  Format.printf "CSP: %d variables, %d constraints@." (Csp.n_variables csp)
    (Csp.n_constraints csp);
  let h = Csp.hypergraph csp in
  Format.printf "constraint hypergraph: %d vertices, %d hyperedges@."
    (Hd_hypergraph.Hypergraph.n_vertices h)
    (Hd_hypergraph.Hypergraph.n_edges h);
  let solve name f =
    let result, elapsed = Hd_engine.Clock.time f in
    (match result with
    | Some a ->
        Format.printf "%s: solution in %.3fs  [consistent: %b]@." name elapsed
          (Csp.consistent csp a);
        if Csp.n_variables csp <= 30 then
          Format.printf "  %s@." (describe csp a)
    | None -> Format.printf "%s: no solution (%.3fs)@." name elapsed);
    result
  in
  (match Solver.solve_if_acyclic csp with
  | Some _ -> Format.printf "constraint hypergraph is alpha-acyclic@."
  | None -> Format.printf "constraint hypergraph is cyclic@.");
  let td () =
    solve "tree-decomposition solving" (fun () -> Solver.solve csp ~strategy:`Td ~seed)
  in
  let ghd () =
    solve "GHD solving" (fun () -> Solver.solve csp ~strategy:`Ghd ~seed)
  in
  let adaptive () =
    solve "adaptive consistency" (fun () ->
        Hd_csp.Adaptive_consistency.solve_auto ~seed csp)
  in
  let from_decompositions =
    match strategy with
    | `Td -> [ td () ]
    | `Ghd -> [ ghd () ]
    | `Adaptive -> [ adaptive () ]
    | `Both ->
        let t = td () in
        let g = ghd () in
        [ t; g; adaptive () ]
  in
  let oracle = solve "backtracking oracle" (fun () -> Csp.solve_backtracking csp) in
  if List.for_all (fun r -> Option.is_some r = Option.is_some oracle) from_decompositions
  then Format.printf "agreement: ok@."
  else begin
    Format.printf "agreement: MISMATCH@.";
    exit 1
  end;
  match stats with
  | Some path -> (
      try Hd_obs.Obs.write_report path
      with Sys_error msg ->
        prerr_endline ("hd_solve: --stats: " ^ msg);
        exit 2)
  | None -> ()

open Cmdliner

let problem =
  let parse s =
    match String.split_on_char ':' s with
    | [ "australia" ] -> Ok `Australia
    | [ "example5" ] -> Ok `Example5
    | [ "queens"; n ] -> Ok (`Queens (int_of_string n))
    | [ "coloring"; name; k ] -> Ok (`Coloring (name, int_of_string k))
    | [ "random"; seed ] -> Ok (`Random (int_of_string seed))
    | _ ->
        Error
          (`Msg
            "expected australia | example5 | queens:N | coloring:NAME:K | random:SEED")
  in
  let print ppf _ = Format.fprintf ppf "<problem>" in
  Arg.(
    value
    & opt (conv (parse, print)) `Australia
    & info [ "problem" ] ~doc:"Problem to solve.")

let strategy =
  Arg.(
    value
    & opt
        (enum
           [ ("td", `Td); ("ghd", `Ghd); ("adaptive", `Adaptive); ("both", `Both) ])
        `Both
    & info [ "strategy" ] ~doc:"Decomposition strategy.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let stats =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Collect hd_obs counters and spans during the run and write the \
           JSON report to $(docv) ($(b,-) or no value: stdout).")

let cmd =
  let doc = "solve CSPs from tree and generalized hypertree decompositions" in
  Cmd.v
    (Cmd.info "hd_solve" ~doc)
    Term.(const run $ problem $ strategy $ seed $ stats)

let () = exit (Cmd.eval cmd)
