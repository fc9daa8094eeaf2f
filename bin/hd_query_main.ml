(* hd_query: answer conjunctive queries over CSV/TSV relational
   instances via Yannakakis semijoin programs on (generalized)
   hypertree decompositions. *)

module Cq = Hd_query.Cq
module Db = Hd_query.Db
module Y = Hd_query.Yannakakis
module Sig = Hd_server.Signature

let load_query ~query_file ~query_string =
  match (query_file, query_string) with
  | Some path, None -> Cq.parse_file path
  | None, Some text -> Cq.parse_string text
  | _ ->
      prerr_endline "hd_query: give exactly one of QUERY, --expr or --batch";
      exit 2

let load_db data =
  let db = Db.create () in
  List.iter
    (fun path ->
      if Sys.is_directory path then Db.load_dir db path
      else Db.load_file db path)
    data;
  if Db.relation_names db = [] then begin
    prerr_endline "hd_query: no relations loaded (give --data DIR or files)";
    exit 2
  end;
  db

(* batch evaluation: parse every rule of the file, share one
   decomposition per isomorphism class of cyclic query structure
   (canonical signatures, orderings replayed through the canonical
   relabelling), report per-query and amortised timings *)
(* -j > 1: one work-stealing scheduler with jobs - 1 workers for the
   run, and the columnar passes partitioned-parallel on it (results are
   byte-identical to -j 1) *)
let with_par jobs f =
  if jobs > 1 then
    Hd_engine.Scheduler.with_scheduler ~workers:(jobs - 1) (fun s ->
        f (Some s))
  else f None

let run_batch batch_file data mode method_ jobs seed time_limit limit =
  let qs = Cq.parse_multi_file batch_file in
  if qs = [] then begin
    prerr_endline "hd_query: --batch file contains no rules";
    exit 2
  end;
  let db = load_db data in
  with_par jobs @@ fun par ->
  (* canonical signature key -> ordering in canonical vertex ids *)
  let orderings : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  let decompositions = ref 0 and reused = ref 0 in
  let decomp_secs = ref 0.0 in
  let total, total_secs =
    Hd_engine.Clock.time @@ fun () ->
    List.fold_left
      (fun (i, acc) q ->
        let ordering =
          match Cq.hypergraph q with
          | exception Invalid_argument _ -> None
          | h ->
              if
                method_ = Y.Auto
                && Hd_hypergraph.Acyclicity.is_acyclic h
              then None
              else begin
                let s = Sig.of_hypergraph h in
                match Hashtbl.find_opt orderings (Sig.key s) with
                | Some canon ->
                    incr reused;
                    Some (Sig.of_canonical s canon)
                | None ->
                    let sigma, secs =
                      Hd_engine.Clock.time @@ fun () ->
                      Y.ordering_for ~method_ ~jobs ~seed ~time_limit h
                    in
                    incr decompositions;
                    decomp_secs := !decomp_secs +. secs;
                    Hashtbl.replace orderings (Sig.key s)
                      (Sig.to_canonical s sigma);
                    Some sigma
              end
        in
        let r, elapsed =
          Hd_engine.Clock.time @@ fun () ->
          Y.run ~method_ ~jobs ~seed ~time_limit ?ordering ?par ~mode db q
        in
        let s = r.Y.stats in
        Printf.printf "[%d] %s  (%s, width %d, %.3fs%s)\n" i
          (match mode with
          | Y.Answers -> Printf.sprintf "%d answers" r.Y.count
          | Y.Count -> Printf.sprintf "count %d" r.Y.count
          | Y.Boolean -> Printf.sprintf "boolean %b" r.Y.nonempty)
          (if s.Y.acyclic then "acyclic" else "GHD")
          s.Y.width elapsed
          (match ordering with Some _ -> ", shared plan" | None -> "");
        (if mode = Y.Answers then
           let sorted = List.sort compare r.Y.answers in
           let shown =
             match limit with
             | Some k -> List.filteri (fun j _ -> j < k) sorted
             | None -> sorted
           in
           List.iter
             (fun row ->
               print_endline ("    " ^ String.concat "," (Array.to_list row)))
             shown);
        (i + 1, acc + r.Y.count))
      (0, 0) qs
  in
  let n, _ = total in
  Printf.eprintf
    "hd_query: batch of %d queries in %.3fs (%.1fms/query amortised); %d \
     decompositions computed (%.3fs), %d shared\n"
    n total_secs
    (1000.0 *. total_secs /. float_of_int (max 1 n))
    !decompositions !decomp_secs !reused

let answer query_file query_string batch data mode method_ jobs seed time_limit
    limit brute stats =
  if stats <> None then Hd_obs.Obs.enable ();
  match batch with
  | Some batch_file ->
      if query_file <> None || query_string <> None || brute then begin
        prerr_endline
          "hd_query: --batch excludes QUERY, --expr and --brute-force";
        exit 2
      end;
      run_batch batch_file data mode method_ jobs seed time_limit limit;
      (match stats with
      | Some path -> (
          try Hd_obs.Obs.write_report path
          with Sys_error msg ->
            prerr_endline ("hd_query: --stats: " ^ msg);
            exit 2)
      | None -> ())
  | None ->
  let q = load_query ~query_file ~query_string in
  let db = load_db data in
  let print_truncated answers =
    let sorted = List.sort compare answers in
    let shown =
      match limit with
      | Some k -> List.filteri (fun i _ -> i < k) sorted
      | None -> sorted
    in
    List.iter
      (fun row -> print_endline (String.concat "," (Array.to_list row)))
      shown;
    match limit with
    | Some k when List.length sorted > k ->
        Printf.eprintf "... %d more answers suppressed by --limit\n"
          (List.length sorted - k)
    | _ -> ()
  in
  if brute then begin
    (* the oracle: same output, no decomposition *)
    (match mode with
    | Y.Answers -> print_truncated (Hd_query.Brute_force.answers db q)
    | Y.Count -> Printf.printf "%d\n" (Hd_query.Brute_force.count db q)
    | Y.Boolean ->
        Printf.printf "%b\n" (Hd_query.Brute_force.boolean db q))
  end
  else begin
    let r, elapsed =
      Hd_engine.Clock.time @@ fun () ->
      with_par jobs @@ fun par ->
      Y.run ~method_ ~jobs ~seed ~time_limit ?par ~mode db q
    in
    (match mode with
    | Y.Answers -> print_truncated r.Y.answers
    | Y.Count -> Printf.printf "%d\n" r.Y.count
    | Y.Boolean -> Printf.printf "%b\n" r.Y.nonempty);
    let s = r.Y.stats in
    Printf.eprintf
      "hd_query: %s in %.3fs  (plan: %s, width %d, %d bags; %d tuples \
       materialized -> %d after %d semijoins)\n"
      (match mode with
      | Y.Answers -> Printf.sprintf "%d answers" r.Y.count
      | Y.Count -> Printf.sprintf "count %d" r.Y.count
      | Y.Boolean -> Printf.sprintf "boolean %b" r.Y.nonempty)
      elapsed
      (if s.Y.acyclic then "acyclic join tree" else "GHD")
      s.Y.width s.Y.bags s.Y.tuples_materialized s.Y.tuples_after_reduction
      s.Y.semijoins
  end;
  match stats with
  | Some path -> (
      try Hd_obs.Obs.write_report path
      with Sys_error msg ->
        prerr_endline ("hd_query: --stats: " ^ msg);
        exit 2)
  | None -> ()

(* a query that cannot be answered (a count past max_int, a malformed
   rule, a missing relation) fails closed with its message *)
let run query_file query_string batch data mode method_ jobs seed time_limit
    limit brute stats =
  try
    answer query_file query_string batch data mode method_ jobs seed
      time_limit limit brute stats
  with Failure msg ->
    prerr_endline ("hd_query: " ^ msg);
    exit 1

open Cmdliner

let query_file =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"QUERY"
        ~doc:
          "Query file: one datalog-style rule, e.g. \
           $(b,ans(X,Y) :- r(X,Z), s(Z,Y).)")

let query_string =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "expr" ] ~docv:"RULE" ~doc:"Inline query text instead of a file.")

let batch =
  Arg.(
    value
    & opt (some file) None
    & info [ "batch" ] ~docv:"FILE"
        ~doc:
          "Batch evaluation: $(docv) holds many '.'-terminated rules. \
           Queries with isomorphic cyclic structure share one \
           decomposition (canonical-signature matching); per-query and \
           amortised timings are reported.")

let data =
  Arg.(
    value
    & opt_all string []
    & info [ "d"; "data" ] ~docv:"PATH"
        ~doc:
          "Relational instance: a directory of $(b,.csv)/$(b,.tsv) files \
           (one relation per file, named after it) or a single file. \
           Repeatable.")

let mode =
  Arg.(
    value
    & opt
        (enum
           [ ("answers", Y.Answers); ("count", Y.Count); ("boolean", Y.Boolean) ])
        Y.Answers
    & info [ "mode" ]
        ~doc:
          "What to compute: $(b,answers) enumerates the distinct answers, \
           $(b,count) counts them, $(b,boolean) decides emptiness.")

let method_ =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", Y.Auto);
             ("minfill", Y.Min_fill);
             ("bb-ghw", Y.Bb_ghw);
             ("portfolio", Y.Portfolio);
           ])
        Y.Auto
    & info [ "m"; "method" ]
        ~doc:
          "Plan selection: $(b,auto) uses the GYO join tree when the query \
           is acyclic and a min-fill GHD otherwise; $(b,minfill), \
           $(b,bb-ghw) and $(b,portfolio) force a GHD plan with that \
           ordering search.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ]
        ~doc:"Worker domains for $(b,--method portfolio).")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let time_limit =
  Arg.(
    value & opt float 10.0
    & info [ "t"; "time-limit" ]
        ~doc:"Time limit (seconds) for the decomposition search.")

let limit =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit" ] ~docv:"N" ~doc:"Print at most $(docv) answers.")

let brute =
  Arg.(
    value & flag
    & info [ "brute-force" ]
        ~doc:
          "Evaluate by brute-force backtracking instead of Yannakakis (the \
           testing oracle).")

let stats =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Collect hd_obs counters and spans (semijoin sizes, intermediate \
           cardinalities, enumeration work) and write the JSON report to \
           $(docv) ($(b,-) or no value: stdout).")

let cmd =
  let doc = "answer conjunctive queries via Yannakakis over (G)HDs" in
  let man =
    [
      `S Manpage.s_examples;
      `P "Count the directed triangles of the sample instance:";
      `Pre
        "  hd_query examples/query/triangle.cq --data examples/query/data \
         --mode count";
      `P "Boolean check with an inline rule:";
      `Pre
        "  hd_query -e 'ok() :- e(X,Y), e(Y,X).' --data examples/query/data \
         --mode boolean";
    ]
  in
  Cmd.v
    (Cmd.info "hd_query" ~doc ~man)
    Term.(
      const run $ query_file $ query_string $ batch $ data $ mode $ method_
      $ jobs $ seed $ time_limit $ limit $ brute $ stats)

let () = exit (Cmd.eval cmd)
