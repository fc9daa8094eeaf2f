module Json = Hd_obs.Obs.Json
module Solver = Hd_engine.Solver

type source =
  | Hypergraph_text of string
  | Cq_text of string
  | File of string

type submit = {
  source : source;
  solver : string option;
  time_limit : float option;
  max_states : int option;
  seed : int option;
  label : string option;
  use_cache : bool;
  with_ordering : bool;
}

type bulk = {
  cqs : string list;
  data : string list;
  mode : string;
  bulk_solver : string option;
  bulk_time_limit : float option;
  bulk_max_states : int option;
  bulk_seed : int option;
  bulk_use_cache : bool;
  answer_limit : int option;
}

type request =
  | Submit of submit
  | Bulk of bulk
  | Poll of int
  | Wait of { job : int; timeout : float }
  | Cancel of int
  | Stats
  | Solvers
  | Shutdown

(* --- field accessors --------------------------------------------- *)

let str_field name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Ok None

let int_field name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None -> Ok None

let num_field name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok (Some (float_of_int i))
  | Some (Json.Float f) -> Ok (Some f)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)
  | None -> Ok None

let bool_field ~default name j =
  match Json.member name j with
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)
  | None -> Ok default

(* a list of strings; a bare string is the singleton list *)
let str_list_field name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok (Some [ s ])
  | Some (Json.List items) ->
      let rec go acc = function
        | [] -> Ok (Some (List.rev acc))
        | Json.String s :: rest -> go (s :: acc) rest
        | _ -> Error (Printf.sprintf "field %S must list strings" name)
      in
      go [] items
  | Some _ -> Error (Printf.sprintf "field %S must be a list of strings" name)
  | None -> Ok None

let ( let* ) = Result.bind

let require_job j k =
  let* job = int_field "job" j in
  match job with
  | Some id when id >= 0 -> k id
  | Some _ -> Error "field \"job\" must be non-negative"
  | None -> Error "missing field \"job\""

let parse_submit j =
  let* hg = str_field "hypergraph" j in
  let* cq = str_field "cq" j in
  let* file = str_field "file" j in
  let* source =
    match (hg, cq, file) with
    | Some s, None, None -> Ok (Hypergraph_text s)
    | None, Some s, None -> Ok (Cq_text s)
    | None, None, Some s -> Ok (File s)
    | None, None, None ->
        Error "submit needs one of \"hypergraph\", \"cq\", \"file\""
    | _ -> Error "submit takes only one of \"hypergraph\", \"cq\", \"file\""
  in
  let* solver = str_field "solver" j in
  let* time_limit = num_field "time_limit" j in
  let* max_states = int_field "max_states" j in
  let* seed = int_field "seed" j in
  let* label = str_field "label" j in
  let* use_cache = bool_field ~default:true "cache" j in
  let* with_ordering = bool_field ~default:false "ordering" j in
  Ok
    (Submit
       {
         source;
         solver;
         time_limit;
         max_states;
         seed;
         label;
         use_cache;
         with_ordering;
       })

let parse_bulk j =
  let* cqs = str_list_field "cqs" j in
  let* cqs =
    match cqs with
    | Some (_ :: _ as l) -> Ok l
    | Some [] | None -> Error "bulk needs a non-empty \"cqs\" list"
  in
  let* data = str_list_field "data" j in
  let data = Option.value ~default:[] data in
  let* mode = str_field "mode" j in
  let mode = Option.value ~default:"count" mode in
  let* () =
    match mode with
    | "answers" | "count" | "boolean" -> Ok ()
    | m ->
        Error
          (Printf.sprintf
             "field \"mode\" must be \"answers\", \"count\" or \"boolean\" \
              (got %S)" m)
  in
  let* bulk_solver = str_field "solver" j in
  let* bulk_time_limit = num_field "time_limit" j in
  let* bulk_max_states = int_field "max_states" j in
  let* bulk_seed = int_field "seed" j in
  let* bulk_use_cache = bool_field ~default:true "cache" j in
  let* answer_limit = int_field "limit" j in
  Ok
    (Bulk
       {
         cqs;
         data;
         mode;
         bulk_solver;
         bulk_time_limit;
         bulk_max_states;
         bulk_seed;
         bulk_use_cache;
         answer_limit;
       })

let parse line =
  match Json.parse line with
  | exception Json.Parse_error msg -> Error ("malformed JSON: " ^ msg)
  | j -> (
      match Json.member "op" j with
      | Some (Json.String op) -> (
          match op with
          | "submit" -> parse_submit j
          | "bulk" -> parse_bulk j
          | "poll" -> require_job j (fun id -> Ok (Poll id))
          | "cancel" -> require_job j (fun id -> Ok (Cancel id))
          | "wait" ->
              require_job j (fun id ->
                  let* timeout = num_field "timeout" j in
                  let timeout = Option.value ~default:60.0 timeout in
                  if timeout < 0.0 then
                    Error "field \"timeout\" must be non-negative"
                  else Ok (Wait { job = id; timeout }))
          | "stats" -> Ok Stats
          | "solvers" -> Ok Solvers
          | "shutdown" -> Ok Shutdown
          | other -> Error (Printf.sprintf "unknown op %S" other))
      | Some _ -> Error "field \"op\" must be a string"
      | None -> Error "missing field \"op\"")

(* --- response builders ------------------------------------------- *)

let ok op fields = Json.Obj (("ok", Json.Bool true) :: ("op", Json.String op) :: fields)

let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let result_json ?(with_ordering = false) ~cached ~solver (r : Solver.result) =
  let lb, ub = Solver.bounds_of r.outcome in
  let base =
    [
      ( "outcome",
        Json.String
          (match r.outcome with Exact _ -> "exact" | Bounds _ -> "bounds") );
      ("width", Json.Int (Solver.value r.outcome));
      ("lb", Json.Int lb);
      ("ub", Json.Int ub);
      ("solver", Json.String solver);
      ("visited", Json.Int r.visited);
      ("generated", Json.Int r.generated);
      ("elapsed", Json.Float r.elapsed);
      ("cached", Json.Bool cached);
    ]
  in
  let ordering =
    match (with_ordering, r.ordering) with
    | true, Some o ->
        [ ("ordering", Json.List (Array.to_list (Array.map (fun v -> Json.Int v) o))) ]
    | _ -> []
  in
  Json.Obj (base @ ordering)

let write_line oc json =
  output_string oc (Json.to_compact json);
  output_char oc '\n';
  flush oc
