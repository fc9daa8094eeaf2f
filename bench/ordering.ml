(* incremental heuristic kernels vs the retained naive reference
   (docs/PERFORMANCE.md), recorded as BENCH_report.json's "ordering"
   section: per-instance naive-vs-incremental wall times for min-fill
   and min-degree (plus MCS), the byte-identical check, and the
   evaluator's suffix-reuse / set-cover-memo counters of a GA-ghw run *)

module Graph = Hd_graph.Graph
module Ga_engine = Hd_ga.Ga_engine
open Harness

let run scale =
  header "Ordering -- incremental heuristic kernels vs naive rescans";
  let module Heur = Hd_core.Ordering_heuristics in
  let instances =
    (* largest bundled graphs: where the O(affected) maintenance pays *)
    let sorted =
      List.sort
        (fun (_, a, _) (_, b, _) -> compare (b : int) a)
        Hd_instances.Graphs.names
    in
    let k = if scale.full then 6 else 3 in
    List.filteri (fun i _ -> i < k) sorted
  in
  Printf.printf "%-12s %5s %7s | %9s %9s %7s %5s | %9s %9s %7s %5s | %8s\n"
    "graph" "V" "E" "fill-nv" "fill-inc" "speedup" "same" "deg-nv" "deg-inc"
    "speedup" "same" "mcs";
  let entries, dirty =
    counter_deltas [ "ordering.key_recomputes"; "ordering.dirty_skips" ]
    @@ fun () ->
    List.map
      (fun (name, _, _) ->
        let g = graph name in
        let side_by_side incr naive =
          let a, t_inc = time (fun () -> incr (Random.State.make [| 1 |]) g) in
          let b, t_nv = time (fun () -> naive (Random.State.make [| 1 |]) g) in
          (a = b, t_inc, t_nv, (if t_inc > 0.0 then t_nv /. t_inc else 1.0))
        in
        let fill_same, fill_inc, fill_nv, fill_speedup =
          side_by_side Heur.min_fill Heur.Naive.min_fill
        in
        let deg_same, deg_inc, deg_nv, deg_speedup =
          side_by_side Heur.min_degree Heur.Naive.min_degree
        in
        let _, mcs_secs =
          time (fun () -> Heur.max_cardinality (Random.State.make [| 1 |]) g)
        in
        Printf.printf
          "%-12s %5d %7d | %8.3fs %8.3fs %6.1fx %5s | %8.3fs %8.3fs %6.1fx %5s | %7.3fs\n"
          name (Graph.n g) (Graph.m g) fill_nv fill_inc fill_speedup
          (if fill_same then "yes" else "NO")
          deg_nv deg_inc deg_speedup
          (if deg_same then "yes" else "NO")
          mcs_secs;
        Obs.Json.Obj
          [
            ("instance", Obs.Json.String name);
            ("vertices", Obs.Json.Int (Graph.n g));
            ("edges", Obs.Json.Int (Graph.m g));
            ("min_fill_naive_seconds", Obs.Json.Float fill_nv);
            ("min_fill_incremental_seconds", Obs.Json.Float fill_inc);
            ("min_fill_speedup", Obs.Json.Float fill_speedup);
            ("min_fill_identical", Obs.Json.Bool fill_same);
            ("min_degree_naive_seconds", Obs.Json.Float deg_nv);
            ("min_degree_incremental_seconds", Obs.Json.Float deg_inc);
            ("min_degree_speedup", Obs.Json.Float deg_speedup);
            ("min_degree_identical", Obs.Json.Bool deg_same);
            ("mcs_seconds", Obs.Json.Float mcs_secs);
          ])
      instances
  in
  let key_recomputes = List.assoc "ordering.key_recomputes" dirty
  and dirty_skips = List.assoc "ordering.dirty_skips" dirty in
  (* GA generations through the evaluator's suffix reuse: the memo and
     checkpoint counters the CI bench smoke asserts on *)
  let ga_instance = "grid2d_10" in
  let h = hypergraph ga_instance in
  let config =
    Ga_engine.default_config ~population_size:scale.population
      ~max_iterations:scale.iterations ~seed:1 ()
  in
  let (report, ga_secs), ga =
    counter_deltas
      [
        "eval.suffix_reevals"; "eval.full_reevals"; "setcover.memo_hits";
        "setcover.memo_misses";
      ]
      (fun () -> time (fun () -> Hd_ga.Ga_ghw.run config h))
  in
  let suffix = List.assoc "eval.suffix_reevals" ga
  and full = List.assoc "eval.full_reevals" ga
  and hits = List.assoc "setcover.memo_hits" ga
  and misses = List.assoc "setcover.memo_misses" ga in
  Printf.printf
    "\ndirty-set: %d key recomputes, %d skips\n\
     GA-ghw %s: best %d in %.1fs -- %d suffix / %d full re-evals, \
     set-cover memo %d hits / %d misses (%.1f%% hit rate)\n"
    key_recomputes dirty_skips ga_instance report.Ga_engine.best ga_secs suffix
    full hits misses
    (100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
  section "ordering"
    (Obs.Json.Obj
       [
         ("instances", Obs.Json.List entries);
         ("key_recomputes", Obs.Json.Int key_recomputes);
         ("dirty_skips", Obs.Json.Int dirty_skips);
         ( "ga",
           Obs.Json.Obj
             [
               ("hypergraph", Obs.Json.String ga_instance);
               ("best", Obs.Json.Int report.Ga_engine.best);
               ("seconds", Obs.Json.Float ga_secs);
               ("suffix_reevals", Obs.Json.Int suffix);
               ("full_reevals", Obs.Json.Int full);
               ("setcover_memo_hits", Obs.Json.Int hits);
               ("setcover_memo_misses", Obs.Json.Int misses);
             ] );
       ])
