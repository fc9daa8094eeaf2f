(* The performance benchmark's command line.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe compare A B
     main.exe selftest

   compare and selftest read BENCHMARK.json from the current directory.

   A run prints every metric by name with its unit, writes a result
   file under bench/perf/_out/results/, and ends its standard output
   with one JSON line: correct, attempted, failed, metrics.  It exits 1
   when any output was wrong. *)

module Json = Hd_obs.Obs.Json

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let print_metrics metrics =
  List.iter
    (fun (name, v) -> Printf.printf "%-40s %16.6f %s\n" name v (Report.unit_of name))
    metrics

let emit ~prefix ~header ~attempted ~failed ~extra metrics =
  let correct = failed = 0 in
  print_metrics metrics;
  Printf.printf "%-40s %16.6f failed/attempted (%d/%d)\n" "error_share"
    (Workloads.share failed attempted) failed attempted;
  let result =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", Report.metrics_json metrics);
    ]
  in
  let path = Report.save ~prefix (Json.Obj (header @ result @ extra)) in
  Printf.eprintf "perfbench: results written to %s\n" path;
  print_endline (Report.to_string (Json.Obj result));
  if correct then 0 else 1

let run ~workload ~seed ~seconds ~trace =
  let measure =
    match List.assoc_opt workload Workloads.all with
    | Some f -> f
    | None ->
        die "unknown workload %S (one of: %s)" workload
          (String.concat ", " (List.map fst Workloads.all))
  in
  let header = Report.header ~workload ~seed ~seconds ~trace in
  let prefix = Printf.sprintf "%s%s-s%d" (if trace then "trace-" else "") workload seed in
  Fun.protect ~finally:Workloads.cleanup @@ fun () ->
  if not trace then begin
    let r = measure ~seed ~seconds in
    emit ~prefix ~header ~attempted:r.Workloads.attempted ~failed:r.failed
      ~extra:[ ("samples", Json.Obj r.samples) ]
      r.metrics
  end
  else begin
    (* end-to-end numbers come from untraced runs; the traced half of
       the window measures what recording costs.  Peak RSS is left out:
       the traced half runs in the same process, after the untraced
       half set the high-water mark. *)
    let half = seconds /. 2.0 in
    let untraced = measure ~seed ~seconds:half in
    let traced = Profile.traced (fun () -> measure ~seed ~seconds:half) in
    let overhead =
      List.filter_map
        (fun (name, u) ->
          let t = List.assoc name traced.metrics in
          if name = "peak_rss_mb" then None else Some (name, u, t))
        untraced.metrics
    in
    let p = Profile.run ~seed in
    prerr_endline "perfbench: tracing overhead (traced - untraced):";
    List.iter
      (fun (name, u, t) -> Printf.eprintf "  %-20s %+14.6f %s\n" name (t -. u) (Report.unit_of name))
      overhead;
    let overhead =
      List.map
        (fun (name, u, t) ->
          (name, Json.Obj [ ("untraced", Json.Float u); ("traced", Json.Float t); ("overhead", Json.Float (t -. u)) ]))
        overhead
    in
    emit ~prefix ~header
      ~attempted:(untraced.attempted + traced.attempted + p.attempted)
      ~failed:(untraced.failed + traced.failed + p.failed)
      ~extra:[ ("overhead", Json.Obj overhead); ("obs", Json.Obj p.obs) ]
      p.layer
  end

(* every workload in a child process of its own, one after another, so
   set-up time and peak memory are each workload's own *)
let all ~seed ~seconds ~trace =
  List.fold_left
    (fun code (workload, _) ->
      let args =
        [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
           Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]
      in
      let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> code
      | _ -> 1)
    0 Workloads.all

(* --- selftest ------------------------------------------------------------------ *)

let spec_names key =
  match Json.member key (Json.parse (Report.read_file Report.spec)) with
  | Some (Json.List ms) ->
      List.filter_map (fun m -> match Json.member "name" m with Some (Json.String s) -> Some s | _ -> None) ms
  | _ -> die "%s: no %s list" Report.spec key

(* every workload at a tiny size: each metric BENCHMARK.json names is
   produced, every check passes, and the reference matcher agrees with
   the library's brute-force evaluator *)
let selftest () =
  Fixture.tiny := true;
  let failures = ref 0 in
  let check what ok =
    Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  let missing names metrics = List.filter (fun n -> not (List.mem_assoc n metrics)) names in
  let e2e = spec_names "end_to_end" and layer = spec_names "per_layer" in
  Fun.protect ~finally:Workloads.cleanup (fun () ->
      List.iter
        (fun (name, measure) ->
          let r = measure ~seed:1 ~seconds:0.0 in
          check (name ^ ": outputs correct") (r.Workloads.failed = 0 && r.attempted > 0);
          check (name ^ ": every end-to-end metric") (missing e2e r.metrics = []))
        Workloads.all;
      let p = Profile.run ~seed:1 in
      check "profile: outputs correct" (p.failed = 0);
      (match missing layer p.layer with
      | [] -> check "profile: every per-layer metric" true
      | names -> check ("profile: missing " ^ String.concat ", " names) false));
  let g = Fixture.digraph (Fixture.rng 7 0) ~n:30 ~out_degree:3 in
  let db = Hd_query.Db.create () in
  Hd_query.Db.add db ~name:"e"
    (Array.to_list (Array.map (fun (u, v) -> [| Printf.sprintf "n%d" u; Printf.sprintf "n%d" v |]) g.arcs));
  let rng = Fixture.rng 7 1 in
  Array.iter
    (fun (s : Fixture.shape) ->
      let q = Hd_query.Cq.parse_string (Fixture.cq_text rng s) in
      check
        (Printf.sprintf "matcher = Brute_force.count on %s" s.shape)
        (Fixture.count_answers g s = Hd_query.Brute_force.count db q))
    Fixture.shapes;
  if !failures = 0 then 0 else 1

(* --- command line -------------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        opts ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> List.rev acc
    | arg :: _ -> die "unexpected argument %S" arg
  in
  let int_opt o k default =
    match List.assoc_opt k o with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> die "--%s wants an integer" k)
  in
  let code =
    match args with
    | [ "compare"; a; b ] -> Report.compare a b
    | [ "selftest" ] -> selftest ()
    | _ -> (
        let o = opts [] args in
        let seconds =
          match float_of_string_opt (Option.value ~default:"20" (List.assoc_opt "seconds" o)) with
          | Some s when s >= 0.0 -> s
          | _ -> die "--seconds wants a non-negative number"
        in
        let trace =
          match int_opt o "trace" 0 with 0 -> false | 1 -> true | _ -> die "--trace is 0 or 1"
        in
        let seed = int_opt o "seed" 1 in
        match List.assoc_opt "workload" o with
        | Some workload -> run ~workload ~seed ~seconds ~trace
        | None -> all ~seed ~seconds ~trace)
  in
  exit code
