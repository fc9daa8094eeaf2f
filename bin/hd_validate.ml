(* hd_validate: check a PACE-format tree decomposition (.td) or a
   hypertree decomposition witness (.ghd) against a graph or
   hypergraph instance, reporting validity and width — interoperates
   with external treewidth solvers and validators.

   .ghd witnesses get the full hypertree treatment: the three GHD
   conditions plus the descendant/special condition.  --fhw
   additionally prices every bag with an exact rational fractional
   cover (the fhw of the decomposition), each price certified by weak
   duality in exact arithmetic. *)

module Graph = Hd_graph.Graph
module Bitset = Hd_graph.Bitset
module Hypergraph = Hd_hypergraph.Hypergraph
module Td = Hd_core.Tree_decomposition
module Ghd = Hd_core.Ghd
module Rat = Hd_lp.Rat

(* exact fractional width of a decomposition: max over bags of rho*,
   each value trusted only with its weak-duality certificate -- a
   feasible cover and a feasible vertex packing that both weigh rho* *)
let fractional_width h td =
  let width = ref Rat.zero in
  let ok = ref true in
  Array.iter
    (fun bag ->
      if not (Bitset.is_empty bag) then begin
        let problem = { Hd_setcover.Set_cover.universe = bag; hypergraph = h } in
        let s = Hd_setcover.Fractional.cover problem in
        if not (Hd_setcover.Fractional.certify problem s) then ok := false;
        if Rat.compare s.value !width > 0 then width := s.value
      end)
    td.Td.bags;
  (!width, !ok)

let audit_fractional_width h td =
  let q, certified = fractional_width h td in
  Format.printf "fractional width of witness: %s (bags certified by duality: %b)@."
    (Rat.to_string q) certified;
  if not certified then exit 1

let run instance graph_file hypergraph_file td_file fhw stats =
  if stats <> None then Hd_obs.Obs.enable ();
  let h =
    match (instance, graph_file, hypergraph_file) with
    | Some name, None, None -> (
        match Hd_instances.Graphs.by_name name with
        | Some g -> Hypergraph.of_graph g
        | None -> (
            match Hd_instances.Hypergraphs.by_name name with
            | Some h -> h
            | None ->
                prerr_endline ("hd_validate: unknown instance " ^ name);
                exit 2))
    | None, Some path, None -> Hypergraph.of_graph (Hd_graph.Dimacs.parse_file path)
    | None, None, Some path -> Hd_hypergraph.Hg_format.parse_file path
    | _ ->
        prerr_endline
          "hd_validate: give exactly one of --instance, --graph, --hypergraph";
        exit 2
  in
  let is_ghd = Filename.check_suffix td_file ".ghd" in
  let valid =
    if is_ghd then begin
      (* hypertree decomposition witness: GHD conditions + special
         condition, as det-k-decomp's output must satisfy *)
      let ghd =
        try Hd_core.Ghd_io.parse_file td_file
        with Failure msg | Invalid_argument msg | Sys_error msg ->
          prerr_endline ("hd_validate: " ^ msg);
          exit 2
      in
      let td = ghd.Ghd.td in
      let ghd_ok =
        Hd_obs.Obs.with_span "validate.check" @@ fun () -> Ghd.valid h ghd
      in
      let special_ok =
        Hd_obs.Obs.with_span "validate.special" @@ fun () ->
        Hd_search.Det_k_decomp.special_condition_holds h ghd
      in
      Format.printf
        "bags: %d@.width: %d (hypertree width of witness)@.valid ghd: %b@.special \
         condition: %b@.valid hypertree decomposition: %b@."
        (Td.n_nodes td) (Ghd.width ghd) ghd_ok special_ok (ghd_ok && special_ok);
      if fhw then audit_fractional_width h td;
      ghd_ok && special_ok
    end
    else begin
      let td =
        try Hd_core.Td_io.parse_file td_file
        with Failure msg | Sys_error msg ->
          prerr_endline ("hd_validate: " ^ msg);
          exit 2
      in
      let valid =
        Hd_obs.Obs.with_span "validate.check" @@ fun () ->
        Td.valid_for_hypergraph h td
      in
      Format.printf "bags: %d@.width: %d@.valid tree decomposition: %b@."
        (Td.n_nodes td) (Td.width td) valid;
      if fhw then audit_fractional_width h td;
      valid
    end
  in
  (match stats with
  | Some path -> (
      try Hd_obs.Obs.write_report path
      with Sys_error msg ->
        prerr_endline ("hd_validate: --stats: " ^ msg);
        exit 2)
  | None -> ());
  if not valid then exit 1

open Cmdliner

let instance =
  Arg.(value & opt (some string) None & info [ "i"; "instance" ] ~doc:"Named instance.")

let graph_file =
  Arg.(value & opt (some file) None & info [ "graph" ] ~doc:"DIMACS graph file.")

let hypergraph_file =
  Arg.(value & opt (some file) None & info [ "hypergraph" ] ~doc:"Hypergraph file.")

let td_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TD_FILE"
        ~doc:
          "Decomposition file: PACE $(b,.td), or $(b,.ghd) for a hypertree \
           decomposition witness (checked against the descendant/special \
           condition as well).")

let fhw_flag =
  Arg.(
    value & flag
    & info [ "fhw" ]
        ~doc:
          "Also price every bag with an exact rational fractional edge cover \
           and report the fractional width of the witness (each bag's value is \
           certified in exact arithmetic by a cover and a vertex packing of \
           equal weight; exits non-zero if any bag fails its audit).")

let stats =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Collect hd_obs counters and spans during the run and write the \
           JSON report to $(docv) ($(b,-) or no value: stdout).")

let cmd =
  let doc = "validate a tree or hypertree decomposition against an instance" in
  Cmd.v
    (Cmd.info "hd_validate" ~doc)
    Term.(
      const run $ instance $ graph_file $ hypergraph_file $ td_file $ fhw_flag
      $ stats)

let () = exit (Cmd.eval cmd)
