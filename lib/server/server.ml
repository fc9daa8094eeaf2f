module Obs = Hd_obs.Obs
module Json = Obs.Json
module Solver = Hd_engine.Solver
module Budget = Hd_engine.Budget

let c_requests = Obs.Counter.make "server.requests"
let c_errors = Obs.Counter.make "server.protocol_errors"

(* the bulk op: N CQs amortised over one decomposition per structure *)
let c_bulk_requests = Obs.Counter.make "server.bulk_requests"
let c_bulk_queries = Obs.Counter.make "server.bulk_queries"
let c_bulk_decompositions = Obs.Counter.make "server.bulk_decompositions"
let c_bulk_cached = Obs.Counter.make "server.bulk_cached_decompositions"

type config = {
  workers : int;
  slice : float;
  cache_capacity : int;
  default_solver : string;
  default_time_limit : float option;
  default_max_states : int option;
}

let default_config =
  {
    workers = 2;
    slice = 0.05;
    cache_capacity = 1024;
    default_solver = "bb-ghw";
    default_time_limit = Some 30.0;
    default_max_states = None;
  }

let ensure_registry = Hd_parallel.Registry.ensure

(* --- loading problems --------------------------------------------- *)

let has_suffix suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let load_problem (source : Protocol.source) =
  try
    let h =
      match source with
      | Protocol.Hypergraph_text text ->
          Hd_hypergraph.Hg_format.parse_string ~source:"submit" text
      | Protocol.Cq_text text ->
          Hd_query.Cq.hypergraph
            (Hd_query.Cq.parse_string ~source:"submit" text)
      | Protocol.File path ->
          if has_suffix ".cq" path then
            Hd_query.Cq.hypergraph (Hd_query.Cq.parse_file path)
          else Hd_hypergraph.Hg_format.parse_file path
    in
    Ok h
  with
  | Failure msg | Invalid_argument msg -> Error msg
  | Sys_error msg -> Error msg

(* --- responses ----------------------------------------------------- *)

let snapshot_fields ~solver ~with_ordering (s : Jobs.snapshot) =
  let base =
    [
      ("job", Json.Int s.id);
      ("state", Json.String s.state);
      ("cached", Json.Bool s.cached);
      ("slices", Json.Int s.slices);
      ("elapsed", Json.Float s.elapsed);
      ("lb", Json.Int s.lb);
      ("ub", Json.Int (if s.ub = max_int then -1 else s.ub));
    ]
  in
  let label =
    match s.label with Some l -> [ ("label", Json.String l) ] | None -> []
  in
  let result =
    match s.result with
    | Some r ->
        [
          ( "result",
            Protocol.result_json ~with_ordering ~cached:s.cached ~solver r );
        ]
    | None -> []
  in
  let error =
    match s.error with Some e -> [ ("error", Json.String e) ] | None -> []
  in
  base @ label @ result @ error

type outcome = [ `Eof | `Shutdown ]

type session = {
  config : config;
  cache : Cache.t;
  jobs : Jobs.t;
  (* per-job rendering context: solver name, ordering flag; dropped
     with the job once its terminal snapshot is rendered *)
  meta : (int, string * bool) Hashtbl.t;
}

(* a request's budget: its own limits, else the session defaults *)
let budget_spec config ~time_limit ~max_states =
  {
    Budget.time_limit =
      (match time_limit with None -> config.default_time_limit | t -> t);
    max_states =
      (match max_states with None -> config.default_max_states | m -> m);
  }

let handle_submit session (s : Protocol.submit) =
  let name = Option.value ~default:session.config.default_solver s.solver in
  match Solver.find name with
  | None ->
      Protocol.error
        (Printf.sprintf "unknown solver %S (try op \"solvers\")" name)
  | Some solver -> (
      match load_problem s.source with
      | Error msg -> Protocol.error msg
      | Ok h ->
          let signature = Signature.of_hypergraph h in
          let spec =
            budget_spec session.config ~time_limit:s.time_limit
              ~max_states:s.max_states
          in
          let snap =
            Jobs.submit session.jobs ~solver ~spec ?seed:s.seed
              ?label:s.label ~use_cache:s.use_cache ~signature
              (Solver.Hypergraph h)
          in
          if not (Jobs.is_terminal snap) then
            Hashtbl.replace session.meta snap.Jobs.id (name, s.with_ordering);
          Protocol.ok "submit"
            (("hash", Json.String (Printf.sprintf "%016x" (Signature.hash signature)))
            :: snapshot_fields ~solver:name ~with_ordering:s.with_ordering
                 snap))

(* --- bulk: N CQs over one shared instance -------------------------- *)

let mode_of_string = function
  | "answers" -> Hd_query.Yannakakis.Answers
  | "count" -> Hd_query.Yannakakis.Count
  | _ -> Hd_query.Yannakakis.Boolean

let handle_bulk session (b : Protocol.bulk) =
  let module Y = Hd_query.Yannakakis in
  let module Cq = Hd_query.Cq in
  Obs.Counter.incr c_bulk_requests;
  let solver_name =
    Option.value ~default:session.config.default_solver b.bulk_solver
  in
  match Solver.find solver_name with
  | None ->
      Protocol.error
        (Printf.sprintf "unknown solver %S (try op \"solvers\")" solver_name)
  | Some solver -> (
      if b.data = [] then Protocol.error "bulk needs \"data\" paths"
      else
        try
          let started = Hd_engine.Clock.now () in
          let db = Hd_query.Db.create () in
          List.iter
            (fun path ->
              if Sys.is_directory path then Hd_query.Db.load_dir db path
              else Hd_query.Db.load_file db path)
            b.data;
          let queries =
            List.mapi
              (fun i text ->
                try Cq.parse_string ~source:(Printf.sprintf "cqs[%d]" i) text
                with Failure msg -> failwith msg)
              b.cqs
          in
          let spec =
            budget_spec session.config ~time_limit:b.bulk_time_limit
              ~max_states:b.bulk_max_states
          in
          let wait_timeout =
            match spec.Budget.time_limit with
            | Some t -> (2.0 *. t) +. 60.0
            | None -> 600.0
          in
          let mode = mode_of_string b.mode in
          let decompositions = ref 0 and cache_hits = ref 0 in
          let results =
            List.mapi
              (fun i q ->
                Obs.Counter.incr c_bulk_queries;
                (* one decomposition per cyclic structure, via the
                   canonical-signature cache: the first member of an
                   isomorphism class solves, later members are served
                   cached with the ordering remapped to their ids *)
                let ordering, job_fields =
                  match Cq.hypergraph q with
                  | exception Invalid_argument _ -> (None, [])
                  | h ->
                      if Hd_hypergraph.Acyclicity.is_acyclic h then (None, [])
                      else begin
                        let signature = Signature.of_hypergraph h in
                        let snap, ordering =
                          Jobs.resolve_ordering session.jobs ~solver ~spec
                            ?seed:b.bulk_seed
                            ~label:(Printf.sprintf "bulk[%d]" i)
                            ~use_cache:b.bulk_use_cache ~timeout:wait_timeout
                            ~signature (Solver.Hypergraph h)
                        in
                        if snap.Jobs.cached then begin
                          incr cache_hits;
                          Obs.Counter.incr c_bulk_cached
                        end
                        else begin
                          incr decompositions;
                          Obs.Counter.incr c_bulk_decompositions
                        end;
                        ( ordering,
                          [
                            ("job", Json.Int snap.Jobs.id);
                            ("cached", Json.Bool snap.Jobs.cached);
                          ] )
                      end
                in
                let r, elapsed =
                  Hd_engine.Clock.time @@ fun () ->
                  (* evaluation shares the jobs scheduler's domains:
                     columnar passes run partitioned-parallel without
                     oversubscribing the serve loop *)
                  Y.run ?seed:b.bulk_seed ?ordering
                    ~par:(Jobs.scheduler session.jobs)
                    ~mode db q
                in
                let answers =
                  match mode with
                  | Y.Answers ->
                      let shown =
                        match b.answer_limit with
                        | Some k ->
                            List.filteri (fun j _ -> j < k)
                              (List.sort compare r.Y.answers)
                        | None -> List.sort compare r.Y.answers
                      in
                      [
                        ( "answers",
                          Json.List
                            (List.map
                               (fun row ->
                                 Json.List
                                   (Array.to_list
                                      (Array.map
                                         (fun s -> Json.String s)
                                         row)))
                               shown) );
                      ]
                  | Y.Count | Y.Boolean -> []
                in
                Json.Obj
                  ([
                     ("query", Json.Int i);
                     ("head", Json.String q.Cq.head_pred);
                     ("count", Json.Int r.Y.count);
                     ("nonempty", Json.Bool r.Y.nonempty);
                     ("width", Json.Int r.Y.stats.Y.width);
                     ( "plan",
                       Json.String
                         (if r.Y.stats.Y.acyclic then "acyclic" else "ghd") );
                     ("elapsed", Json.Float elapsed);
                   ]
                  @ job_fields @ answers))
              queries
          in
          Protocol.ok "bulk"
            [
              ("mode", Json.String b.mode);
              ("queries", Json.List results);
              ("n", Json.Int (List.length results));
              ("decompositions", Json.Int !decompositions);
              ("cache_hits", Json.Int !cache_hits);
              ("elapsed", Json.Float (Hd_engine.Clock.now () -. started));
            ]
        with
        | Failure msg -> Protocol.error msg
        | Sys_error msg -> Protocol.error msg)

let render_snapshot session op = function
  | Error msg -> Protocol.error msg
  | Ok snap ->
      let solver, with_ordering =
        Option.value ~default:("", false)
          (Hashtbl.find_opt session.meta snap.Jobs.id)
      in
      if Jobs.is_terminal snap then Hashtbl.remove session.meta snap.Jobs.id;
      Protocol.ok op (snapshot_fields ~solver ~with_ordering snap)

let handle session req =
  match req with
  | Protocol.Submit s -> (handle_submit session s, false)
  | Protocol.Bulk b -> (handle_bulk session b, false)
  | Protocol.Poll id -> (render_snapshot session "poll" (Jobs.poll session.jobs id), false)
  | Protocol.Wait { job; timeout } ->
      (render_snapshot session "wait" (Jobs.wait session.jobs job ~timeout), false)
  | Protocol.Cancel id ->
      (render_snapshot session "cancel" (Jobs.cancel session.jobs id), false)
  | Protocol.Stats ->
      let counters =
        Obs.Counter.all ()
        |> List.filter_map (fun c ->
               let n = Obs.Counter.name c in
               if
                 String.length n >= 7
                 && (String.sub n 0 7 = "server." || String.sub n 0 7 = "engine.")
               then Some (n, Json.Int (Obs.Counter.value c))
               else None)
        |> List.sort compare
      in
      ( Protocol.ok "stats"
          [
            ("jobs", Jobs.stats session.jobs);
            ("cache", Cache.stats session.cache);
            ("counters", Json.Obj counters);
          ],
        false )
  | Protocol.Solvers ->
      let solvers =
        Solver.all ()
        |> List.map (fun (s : Solver.t) ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("kind", Json.String (Solver.kind_name s.kind));
                   ("doc", Json.String s.doc);
                 ])
      in
      (Protocol.ok "solvers" [ ("solvers", Json.List solvers) ], false)
  | Protocol.Shutdown -> (Protocol.ok "shutdown" [], true)

let serve ?(config = default_config) ic oc =
  ensure_registry ();
  let cache = Cache.create ~capacity:config.cache_capacity () in
  let jobs =
    Jobs.create ~workers:config.workers ~slice:config.slice ~cache ()
  in
  let session = { config; cache; jobs; meta = Hashtbl.create 32 } in
  let rec loop () : outcome =
    match input_line ic with
    | exception End_of_file -> `Eof
    | line when String.trim line = "" -> loop ()
    | line -> (
        Obs.Counter.incr c_requests;
        match Protocol.parse line with
        | Error msg ->
            Obs.Counter.incr c_errors;
            Protocol.write_line oc (Protocol.error msg);
            loop ()
        | Ok req ->
            let resp, quit = handle session req in
            Protocol.write_line oc resp;
            if quit then `Shutdown else loop ())
  in
  Fun.protect ~finally:(fun () -> Jobs.shutdown jobs) loop
