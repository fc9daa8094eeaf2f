(* hd_server: decomposition-as-a-service.  Speaks the line-JSON
   protocol of docs/SERVER.md on stdin/stdout: submit hypergraphs or
   conjunctive queries, poll/wait/cancel jobs, read stats.  Solves run
   asynchronously, time-sliced on the scheduler's worker domains; repeat
   submissions are answered from a canonical-signature cache. *)

module Server = Hd_server.Server
module Obs = Hd_obs.Obs

let run workers slice_ms cache_capacity solver time_limit max_states stats =
  (* recording on by default: the server.* counters are part of the
     service's contract (stats op, --stats report, CI smoke) *)
  Obs.enable ();
  let config =
    {
      Server.workers;
      slice = float_of_int slice_ms /. 1000.0;
      cache_capacity;
      default_solver = solver;
      default_time_limit = time_limit;
      default_max_states = max_states;
    }
  in
  prerr_endline
    (Printf.sprintf
       "hd_server: ready (workers %d, slice %dms, cache %d, solver %s)"
       workers slice_ms cache_capacity solver);
  let outcome = Server.serve ~config stdin stdout in
  (match stats with
  | Some path -> (
      try Obs.write_report path
      with Sys_error msg ->
        prerr_endline ("hd_server: --stats: " ^ msg);
        exit 2)
  | None -> ());
  prerr_endline
    (match outcome with
    | `Shutdown -> "hd_server: shutdown requested, bye"
    | `Eof -> "hd_server: client closed the stream, bye")

open Cmdliner

let workers =
  Arg.(
    value & opt int 2
    & info [ "j"; "workers" ] ~docv:"N"
        ~doc:"Worker domains time-slicing the job queue.")

let slice_ms =
  Arg.(
    value & opt int 50
    & info [ "slice" ] ~docv:"MS"
        ~doc:
          "Milliseconds of compute one job gets per scheduler turn before \
           it is parked and the next runnable job runs.")

let cache_capacity =
  Arg.(
    value & opt int 1024
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:
          "Entries in the decomposition cache (LRU beyond that); keyed by \
           canonical hypergraph signature and width kind.")

let solver =
  Arg.(
    value
    & opt string Server.default_config.Server.default_solver
    & info [ "solver" ] ~docv:"NAME"
        ~doc:
          "Default solver for submits that name none (op $(b,solvers) \
           lists the registry).")

let time_limit =
  Arg.(
    value
    & opt (some float) Server.default_config.Server.default_time_limit
    & info [ "t"; "time-limit" ] ~docv:"SECONDS"
        ~doc:
          "Default compute-time budget per job (parked time does not \
           count); submits may override it.")

let max_states =
  Arg.(
    value & opt (some int) None
    & info [ "max-states" ] ~docv:"N"
        ~doc:"Default cap on generated search states per job.")

let stats =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "On exit, write the hd_obs JSON report (server.* counters \
           included) to $(docv) ($(b,-) or no value: stdout).")

let cmd =
  let doc = "serve decompositions over a line-JSON protocol" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads one JSON request per line from standard input and answers \
         each with one JSON line on standard output; see docs/SERVER.md \
         for the request and response schema.  Solves run asynchronously \
         under budgets, many jobs time-sliced over $(b,--workers) \
         domains, and repeat submissions of the same instance (up to \
         vertex renaming and edge reordering) are answered from a \
         decomposition cache.";
    ]
  in
  Cmd.v
    (Cmd.info "hd_server" ~doc ~man)
    Term.(
      const run $ workers $ slice_ms $ cache_capacity $ solver $ time_limit
      $ max_states $ stats)

let () = exit (Cmd.eval cmd)
