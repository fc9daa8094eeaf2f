(* Result lines and files, and the comparison of two sets of runs
   under the bounds BENCHMARK.json fixes. *)

module Json = Hd_obs.Obs.Json

(* JSON with every float digit kept: Json.to_compact rounds to six
   decimals, too coarse for microsecond timings and for telling runs
   apart *)
let rec write buf = function
  | Json.Float f when Float.is_finite f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Json.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        items;
      Buffer.add_char buf ']'
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Json.to_compact (Json.String k));
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'
  | scalar -> Buffer.add_string buf (Json.to_compact scalar)

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.contents buf

let end_to_end_units =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("exact_share", "fraction");
    ("width_mean", "width");
  ]

let contains name s =
  let ls = String.length s and ln = String.length name in
  let rec at i = i + ls <= ln && (String.sub name i ls = s || at (i + 1)) in
  at 0

(* per-layer units follow from the naming scheme of the metrics *)
let unit_of name =
  match List.assoc_opt name end_to_end_units with
  | Some u -> u
  | None ->
      if contains name "_us" then "us"
      else if contains name "_ms" then "ms"
      else if contains name "_ns" then "ns"
      else if contains name "_s." || Filename.check_suffix name "_s" then "s"
      else if contains name "share" || contains name "ratio" then "fraction"
      else "count"

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, value) ->
         (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String (unit_of name)) ]))
       metrics)

(* --- result files ----------------------------------------------------------- *)

let results_dir = "bench/perf/_out/results"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* the checked-out commit when the checkout is a git work tree *)
let commit () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match trim (read_file (Filename.concat ".git" ref_name)) with
      | sha -> sha
      | exception Sys_error _ -> (
          match read_file ".git/packed-refs" with
          | exception Sys_error _ -> "unknown"
          | packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ sha; r ] when r = ref_name -> Some sha
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | sha -> sha

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let save ~prefix json =
  mkdir_p results_dir;
  let path =
    Filename.concat results_dir
      (Printf.sprintf "%s-%d-%d.json" prefix (int_of_float (Hd_engine.Clock.now () *. 1000.0)) (Unix.getpid ()))
  in
  let oc = open_out path in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc;
  path

let header ~workload ~seed ~seconds ~trace =
  [
    ("schema", Json.String "hypertree/perfbench/1");
    ("workload", Json.String workload);
    ("seed", Json.Int seed);
    ("seconds", Json.Float seconds);
    ("trace", Json.Bool trace);
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Json.String Sys.ocaml_version);
    ("commit", Json.String (commit ()));
  ]

(* --- compare -------------------------------------------------------------------- *)

type bound = { metric : string; higher_is_better : bool; bound : float }

let spec = "BENCHMARK.json"

let spec_bounds () =
  let j = Json.parse (read_file spec) in
  match Json.member "end_to_end" j with
  | Some (Json.List ms) ->
      List.map
        (fun m ->
          let str k = match Json.member k m with Some (Json.String s) -> s | _ -> "" in
          let num k =
            match Json.member k m with
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float_of_int i
            | _ -> 0.0
          in
          { metric = str "name"; higher_is_better = str "better" = "higher"; bound = num "bound" })
        ms
  | _ -> failwith (spec ^ ": no end_to_end list")

(* untraced result files under [path] (a file or a directory):
   [(workload, metric values)] *)
let load_runs path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.filter_map
    (fun file ->
      let j = Json.parse (read_file file) in
      match (Json.member "workload" j, Json.member "trace" j, Json.member "metrics" j) with
      | Some (Json.String w), Some (Json.Bool false), Some (Json.Obj ms) ->
          let value = function
            | Json.Obj v -> (
                match List.assoc_opt "value" v with
                | Some (Json.Float f) -> Some f
                | Some (Json.Int i) -> Some (float_of_int i)
                | _ -> None)
            | _ -> None
          in
          Some (w, List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (value v)) ms)
      | _ -> None)
    files

(* The verdict for one (metric, workload) pair, parent runs [a] against
   change runs [b].  A spread wider than the bound leaves the pair
   unresolved unless every run of one side beats every run of the
   other; otherwise a median worse by more than the bound is worse, and
   a median better by more than the parent's own spread, with nine in
   ten of the change's runs beating the parent's median, is better. *)
let verdict { higher_is_better; bound; _ } a b =
  let better x y = if higher_is_better then x > y else x < y in
  let ma = Stats.median a and mb = Stats.median b in
  let q1, q3 = Stats.quartiles a in
  let spread = if ma = 0.0 then 0.0 else Float.abs (q3 -. q1) /. Float.abs ma in
  let all_beat xs ys = List.for_all (fun x -> List.for_all (better x) ys) xs in
  let worse_by = (if higher_is_better then ma -. mb else mb -. ma) /. Float.abs (if ma = 0.0 then 1.0 else ma) in
  let verdict =
    if spread > bound then
      if all_beat b a then "better" else if all_beat a b then "worse" else "unresolved"
    else if worse_by > bound then "worse"
    else if
      better mb ma
      && Float.abs (mb -. ma) > Float.abs (q3 -. q1)
      && 10 * List.length (List.filter (fun x -> better x ma) b) >= 9 * List.length b
    then "better"
    else "unchanged"
  in
  (verdict, ma, mb, spread)

let compare a_path b_path =
  let bounds = spec_bounds () in
  let a = load_runs a_path and b = load_runs b_path in
  let workloads = List.sort_uniq compare (List.map fst a) in
  Printf.printf "%-14s %-15s %5s %5s %14s %14s %8s %7s %6s  %s\n" "workload" "metric" "n_a" "n_b" "median_a"
    "median_b" "change" "spread" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      let runs side = List.filter_map (fun (w', ms) -> if w' = w then Some ms else None) side in
      let ra = runs a and rb = runs b in
      List.iter
        (fun bd ->
          let values rs = List.filter_map (List.assoc_opt bd.metric) rs in
          match (values ra, values rb) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let v, ma, mb, spread = verdict bd va vb in
              if v = "worse" then incr worse;
              Printf.printf "%-14s %-15s %5d %5d %14.6g %14.6g %+7.2f%% %6.2f%% %5.0f%%  %s\n" w bd.metric
                (List.length va) (List.length vb) ma mb
                (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma)
                (100.0 *. spread) (100.0 *. bd.bound) v)
        bounds)
    workloads;
  if !worse > 0 then 1 else 0
