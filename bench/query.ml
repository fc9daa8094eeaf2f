(* conjunctive-query answering (hd_query): Yannakakis over the
   decomposition stack vs a brute-force evaluator on random digraphs,
   recorded as BENCH_report.json's "query" section (answer counts,
   semijoin reduction ratios, wall times), plus a gated batch on the
   columnar kernel *)

open Harness

(* the default-scale batch below on the columnar kernel with connected
   bag plans and the pipelined join-project, whose bindings now also
   give the projected queries' distinct answers (query.radix_probes,
   query.radix_join_tuples): the gate.  Its minor words are capped at
   the measurement plus 5%, as the corpus gate caps its own: 290,635
   measured with atom relations as column views (292,065 with the
   per-atom cache they replaced).  The reading is exact
   ([Harness.allocation]), so it no longer moves with the minor-heap
   size *)
let columnar_baseline_probes = 40_638
let columnar_baseline_join_tuples = 49_934
let columnar_minor_words_ceiling = 305_000

let run scale =
  header "Query -- Yannakakis over (G)HDs vs brute force (hd_query)";
  let module Cq = Hd_query.Cq in
  let module Db = Hd_query.Db in
  let module Y = Hd_query.Yannakakis in
  let n, m = if scale.full then (120, 900) else (50, 320) in
  let rng = Random.State.make [| 42 |] in
  let db = Db.create () in
  Db.add db ~name:"e"
    (List.init m (fun _ ->
         [|
           Printf.sprintf "v%d" (Random.State.int rng n);
           Printf.sprintf "v%d" (Random.State.int rng n);
         |]));
  Printf.printf "random digraph: %d vertices, %d edge tuples\n\n" n m;
  Printf.printf "%-10s %-7s | %7s %5s %5s | %9s %9s %7s | %9s %7s\n" "query"
    "plan" "answers" "bags" "semij" "tuples" "reduced" "ratio" "yannakakis"
    "brute";
  let queries =
    [
      ("triangle", "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).");
      ("4-cycle", "ans(W,X,Y,Z) :- e(W,X), e(X,Y), e(Y,Z), e(Z,W).");
      ("two-hop", "ans(X,Z) :- e(X,Y), e(Y,Z).");
      ("v-path", "ans(X,Z) :- e(X,Y), e(Z,Y).");
    ]
  in
  let entries =
    List.map
      (fun (name, text) ->
        let q = Cq.parse_string ~source:name text in
        let r, secs = time (fun () -> Y.run ~mode:Y.Answers db q) in
        let bf, bf_secs = time (fun () -> Hd_query.Brute_force.count db q) in
        if bf <> r.Y.count then
          failwith (Printf.sprintf "query %s: %d answers vs %d brute-force"
                      name r.Y.count bf);
        let s = r.Y.stats in
        let ratio =
          if s.Y.tuples_materialized = 0 then 1.0
          else
            float_of_int s.Y.tuples_after_reduction
            /. float_of_int s.Y.tuples_materialized
        in
        let plan =
          if s.Y.acyclic then "gyo" else Printf.sprintf "ghd-w%d" s.Y.width
        in
        Printf.printf
          "%-10s %-7s | %7d %5d %5d | %9d %9d %6.2f%% | %8.3fs %6.3fs\n" name
          plan r.Y.count s.Y.bags s.Y.semijoins s.Y.tuples_materialized
          s.Y.tuples_after_reduction (100.0 *. ratio) secs bf_secs;
        Obs.Json.Obj
          [
            ("query", Obs.Json.String name);
            ("plan", Obs.Json.String plan);
            ("width", Obs.Json.Int s.Y.width);
            ("bags", Obs.Json.Int s.Y.bags);
            ("answers", Obs.Json.Int r.Y.count);
            ("semijoins", Obs.Json.Int s.Y.semijoins);
            ("tuples_materialized", Obs.Json.Int s.Y.tuples_materialized);
            ("tuples_after_reduction", Obs.Json.Int s.Y.tuples_after_reduction);
            ("reduction_ratio", Obs.Json.Float ratio);
            ("seconds", Obs.Json.Float secs);
            ("seconds_brute_force", Obs.Json.Float bf_secs);
          ])
      queries
  in
  (* the per-query sweep above materialized bags on both the acyclic
     and the GHD plan, so the cardinality histograms must have
     observations --
     their absence from BENCH_report.json was a recording bug once *)
  let assert_histogram name =
    let h = Obs.Histogram.make name in
    if Obs.Histogram.count h = 0 then
      failwith (Printf.sprintf "histogram %s is empty in the query experiment"
                  name)
  in
  assert_histogram "query.relation_size";
  assert_histogram "query.bag_size";
  (* batch workload: N conjunctive queries over the one instance on the
     columnar kernel, sharing one decomposition per isomorphism class
     of cyclic query structure -- the hd_query --batch / server "bulk"
     execution strategy.  The gate is deterministic: at default scale
     the batch may take at most the recorded columnar probes and
     exactly the recorded columnar join tuples; -full only reports.
     Wall time is never gated. *)
  let module Sig = Hd_server.Signature in
  let batch_texts =
    (* renamed isomorphic copies, so plan sharing has real work to do *)
    List.concat
      [
        List.init 6 (fun i ->
            Printf.sprintf "t%d(A,B,C) :- e(A,B), e(B,C), e(C,A)." i);
        List.init 6 (fun i ->
            Printf.sprintf "c%d(W,X,Y,Z) :- e(W,X), e(X,Y), e(Y,Z), e(Z,W)."
              i);
        List.init 4 (fun i -> Printf.sprintf "h%d(X,Z) :- e(X,Y), e(Y,Z)." i);
        List.init 4 (fun i -> Printf.sprintf "v%d(X,Z) :- e(X,Y), e(Z,Y)." i);
      ]
  in
  let batch =
    List.mapi (fun i t -> Cq.parse_string ~source:(Printf.sprintf "b%d" i) t)
      batch_texts
  in
  let nq = List.length batch in
  let col_names =
    [
      "query.radix_probes"; "query.radix_join_tuples";
      "query.reduce_semijoins"; "query.selvec_semijoins";
      "query.selvec_kept_rows"; "query.radix_bucket_skips";
      "query.bag_tuples";
    ]
  in
  (* orderings shared per canonical signature, exactly as hd_query
     --batch and the server bulk op do *)
  let orderings : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  let decompositions = ref 0 and shared = ref 0 in
  let ((col_counts, col_secs), col_deltas), minor_words, _ =
    allocation @@ fun () ->
    counter_deltas col_names @@ fun () ->
    time (fun () ->
        List.map
          (fun q ->
            let ordering =
              match Cq.hypergraph q with
              | exception Invalid_argument _ -> None
              | h ->
                  if Hd_hypergraph.Acyclicity.is_acyclic h then None
                  else
                    let s = Sig.of_hypergraph h in
                    (match Hashtbl.find_opt orderings (Sig.key s) with
                    | Some canon ->
                        incr shared;
                        Some (Sig.of_canonical s canon)
                    | None ->
                        let sigma =
                          Y.ordering_for ~method_:Y.Auto ~jobs:1 ~seed:42
                            ~time_limit:scale.time_limit h
                        in
                        incr decompositions;
                        Hashtbl.replace orderings (Sig.key s)
                          (Sig.to_canonical s sigma);
                        Some sigma)
            in
            (Y.run ?ordering ~mode:Y.Count db q).Y.count)
          batch)
  in
  if List.map (Hd_query.Brute_force.count db) batch <> col_counts then
    failwith "batch workload: columnar and brute-force answer counts differ";
  let probes_col = List.assoc "query.radix_probes" col_deltas in
  let join_tuples = List.assoc "query.radix_join_tuples" col_deltas in
  Printf.printf
    "\nbatch: %d queries (%d decompositions computed, %d shared)\n" nq
    !decompositions !shared;
  Printf.printf "%-10s | %9s %12s %12s %12s\n" "engine" "seconds" "probes"
    "join tuples" "minor words";
  Printf.printf "%-10s | %8.3fs %12d %12d %12d\n" "columnar" col_secs
    probes_col join_tuples minor_words;
  let verdict =
    gate ~enforced:(not scale.full)
      [
        At_most ("query.radix_probes", columnar_baseline_probes, probes_col);
        Exact ("query.radix_join_tuples", columnar_baseline_join_tuples,
               join_tuples);
        At_most ("gc.minor_words", columnar_minor_words_ceiling, minor_words);
      ]
  in
  let json_counts ds = List.map (fun (n, v) -> (n, Obs.Json.Int v)) ds in
  section "query" ~verdict
    (Obs.Json.Obj
       [
         ("vertices", Obs.Json.Int n);
         ("edge_tuples", Obs.Json.Int m);
         ("instances", Obs.Json.List entries);
         ( "batch",
           Obs.Json.Obj
             [
                ("queries", Obs.Json.Int nq);
                ("answers", Obs.Json.Int (List.fold_left ( + ) 0 col_counts));
                ("decompositions", Obs.Json.Int !decompositions);
                ("shared_plans", Obs.Json.Int !shared);
                ( "columnar",
                  Obs.Json.Obj
                    (("seconds", Obs.Json.Float col_secs)
                    :: json_counts (col_deltas @ [ ("gc.minor_words", minor_words) ])) );
                ("gate", Obs.Json.String verdict);
              ] );
       ])
