(* The traced layer profile: one fixed-size traced pass of every
   workload, with Hd_obs recording on and the benchmark's own timers
   around calls into each layer.  Counters of the sweep and ladder
   passes repeat exactly run to run. *)

module Obs = Hd_obs.Obs
module Json = Obs.Json
module Clock = Hd_engine.Clock
module Sweep = Hd_corpus.Sweep
module Y = Hd_query.Yannakakis
open Workloads

type t = {
  layer : (string * float) list;
  attempted : int;
  failed : int;
  obs : (string * Json.t) list;  (** Hd_obs report per profiled workload *)
}

(* run [f] with recording on, from zeroed counters *)
let traced f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

let counter name = Obs.Counter.value (Obs.Counter.make name)
let counters names = List.map (fun c -> (c, counter c)) names
let ratio hits misses = if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)

(* the [q] quantile over [xs] of microseconds per call of [f x] *)
let us_p q f xs =
  let reps = 10 in
  Stats.quantile q
    (List.map
       (fun x ->
         let (), dt = Clock.time (fun () -> for _ = 1 to reps do ignore (Sys.opaque_identity (f x)) done) in
         dt *. 1e6 /. float_of_int reps)
       xs)

let ms_median ~reps f = Stats.median (List.init reps (fun _ -> 1000.0 *. snd (Clock.time f)))

(* each profile: (layer metrics, counters, ops attempted, ops failed, Hd_obs report) *)

let corpus ~seed =
  let instances = reorder (Fixture.rng seed 1) (corpus_set_up ()) in
  let texts = List.map (fun (i : Fixture.instance) -> i.text) instances in
  let parse_ms =
    ms_median ~reps:5 (fun () ->
        Obs.with_span "bench.parse_corpus" @@ fun () ->
        List.iter (fun t -> ignore (Hd_corpus.Corpus.parse_string t)) texts)
  in
  let report = traced (fun () -> sweep_pass instances) in
  let obs = Obs.report () in
  let member name =
    sum
      (List.concat_map
         (fun (row : Sweep.row) ->
           List.filter_map (fun (r : Sweep.solver_run) -> if r.solver = name then Some r.seconds else None) row.runs)
         report.rows)
  in
  let table = sweep_table report in
  ( [ ("parse.corpus_ms", parse_ms) ]
    @ List.map (fun m -> ("sweep.member_s." ^ m, member m)) Sweep.default_roster
    @ [
        ( "sweep.nonexact_s",
          sum (List.filter_map (fun (row : Sweep.row) -> if row.exact then None else Some row.seconds) report.rows) );
      ],
    counters
      [
        "search.nodes_expanded"; "search.nodes_generated"; "search.duplicates_pruned"; "engine.blocks";
        "setcover.exact_calls"; "setcover.memo_hits"; "setcover.memo_misses"; "ordering.key_recomputes";
      ],
    List.length table,
    acyclicity_violations instances table,
    obs )

let ladder ~seed =
  let instances = reorder (Fixture.rng seed 1) (ladder_set_up ()) in
  let pass = traced (fun () -> ladder_pass instances) in
  let obs = Obs.report () in
  let solver_s s = sum (List.filter_map (fun ((_, s'), _, dt) -> if s = s' then Some dt else None) pass) in
  ( List.map (fun s -> ("ladder.solver_s." ^ s, solver_s s)) ladder_solvers,
    counters
      [
        "setcover.exact_calls"; "setcover.memo_hits"; "setcover.memo_misses"; "ordering.key_recomputes";
        "lp.solves"; "lp.pivots"; "lp.memo_hits"; "lp.memo_misses"; "lp.oracle_calls";
      ],
    List.length pass,
    hierarchy_violations (ladder_table pass),
    obs )

(* the first of the rounds is cold *)
let stream_rounds () = if !Fixture.tiny then 1 else 3

let stream ~seed =
  let st = stream_set_up ~seed in
  let replies =
    List.concat_map fst
      ( traced @@ fun () ->
        Fun.protect ~finally:(fun () -> stop_server st.client) @@ fun () ->
        pump st ~continue_:(fun k _ -> k < stream_rounds ()) )
  in
  let obs = Obs.report () in
  let n = List.length replies in
  let solved = List.filter (fun r -> not (bool_f "cached" r.final)) replies in
  let elapsed r = float_f "elapsed" r.final in
  let texts = List.map (fun r -> r.sub.text) replies in
  let parsed = List.map Hd_hypergraph.Hg_format.parse_string texts in
  let ms q xs = Stats.quantile q (List.map (fun s -> s *. 1000.0) xs) in
  let wait r = r.latency -. elapsed r in
  ( [
      ("parse.submit_us_p50", us_p 0.5 Hd_hypergraph.Hg_format.parse_string texts);
      ("protocol.parse_us_p50", us_p 0.5 Hd_server.Protocol.parse (List.map (fun r -> r.sub.line) replies));
      ("signature.canon_us_p50", us_p 0.5 Hd_server.Signature.of_hypergraph parsed);
      ("signature.canon_us_p99", us_p 0.99 Hd_server.Signature.of_hypergraph parsed);
      ("cache.hit_share", share (n - List.length solved) n);
      ("cache.iso_miss_share", share (count (fun r -> r.seen_exact) solved) n);
      ("jobs.queue_wait_ms_p50", ms 0.5 (List.map wait solved));
      ("jobs.queue_wait_ms_p99", ms 0.99 (List.map wait solved));
      ("jobs.compute_ms_p50", ms 0.5 (List.map elapsed solved));
      ("jobs.compute_ms_p99", ms 0.99 (List.map elapsed solved));
      ("jobs.slices_per_job", Stats.mean (List.map (fun r -> float_of_int (int_f "slices" r.final)) solved));
    ],
    counters [ "parallel.tasks"; "parallel.steals"; "parallel.park_ns" ],
    n,
    check_replies st.instances replies,
    obs )

let bulk ~seed =
  let b = bulk_set_up ~seed in
  let answered, refused =
    answers
      (List.concat_map fst
         ( traced @@ fun () ->
           Fun.protect ~finally:(fun () -> stop_server b.bulk_client) @@ fun () ->
           bulk_pump b ~continue_:(fun k _ -> k < 1) ))
  in
  let obs = Obs.report () in
  let counted =
    counters
      [
        "query.radix_probes"; "query.radix_join_tuples"; "query.selvec_kept_rows"; "parallel.tasks";
        "parallel.steals"; "parallel.park_ns";
      ]
  in
  let load () =
    let db = Hd_query.Db.create () in
    Obs.with_span "bench.db_load" (fun () -> Hd_query.Db.load_dir db b.dir);
    db
  in
  let load_ms = ms_median ~reps:5 (fun () -> ignore (load ())) in
  let db = load () in
  let rng = Fixture.rng seed 5 in
  let probe_failures = ref 0 in
  let per_shape =
    Array.to_list Fixture.shapes
    |> List.concat_map (fun (s : Fixture.shape) ->
           let q = Hd_query.Cq.parse_string (Fixture.cq_text rng s) in
           let h = Hd_query.Cq.hypergraph q in
           let plan () =
             Obs.with_span "bench.query_plan" @@ fun () ->
             Y.ordering_for ~method_:Y.Bb_ghw ~jobs:1 ~seed:42 ~time_limit:30.0 h
           in
           let plan_ms = ms_median ~reps:3 (fun () -> ignore (plan ())) in
           (* the server plans cyclic queries only; acyclic ones take the GYO join tree *)
           let ordering = if s.ghw > 1 then Some (plan ()) else None in
           let eval () = Obs.with_span "bench.query_eval" @@ fun () -> Y.run ?ordering ~mode:Y.Count db q in
           let eval_ms = ms_median ~reps:3 (fun () -> ignore (eval ())) in
           let r = eval () in
           if r.Y.count <> Fixture.count_answers b.graph s then incr probe_failures;
           let st = r.Y.stats in
           [
             ("query.plan_ms." ^ s.shape, plan_ms);
             ("query.eval_ms." ^ s.shape, eval_ms);
             ( "query.bag_tuples_per_answer." ^ s.shape,
               float_of_int st.Y.tuples_materialized /. float_of_int (max 1 r.Y.count) );
             ("query.reduction_ratio." ^ s.shape, share st.Y.tuples_after_reduction (max 1 st.Y.tuples_materialized));
           ])
  in
  cleanup ();
  ( ("db.load_ms", load_ms) :: per_shape,
    counted,
    List.length answered + refused,
    refused + check_answers b.graph answered + !probe_failures,
    obs )

let run ~seed =
  let corpus_layer, sweep_c, sweep_n, sweep_bad, sweep_obs = corpus ~seed in
  let ladder_layer, ladder_c, ladder_n, ladder_bad, ladder_obs = ladder ~seed in
  let stream_layer, stream_c, stream_n, stream_bad, stream_obs = stream ~seed in
  let bulk_layer, bulk_c, bulk_n, bulk_bad, bulk_obs = bulk ~seed in
  let c tbl name = List.assoc name tbl in
  let both name = c sweep_c name + c ladder_c name in
  let per count n = float_of_int count /. float_of_int (max 1 n) in
  (* every bulk request carries 3 queries *)
  let per_request name = per (c stream_c name + c bulk_c name) (stream_n + (bulk_n / 3)) in
  let layer =
    corpus_layer
    @ List.map
        (fun k -> (k, float_of_int (c sweep_c k)))
        [ "search.nodes_expanded"; "search.nodes_generated"; "search.duplicates_pruned"; "engine.blocks" ]
    @ [
        ("setcover.exact_calls", float_of_int (both "setcover.exact_calls"));
        ("setcover.memo_hit_ratio", ratio (both "setcover.memo_hits") (both "setcover.memo_misses"));
        ("ordering.key_recomputes", float_of_int (both "ordering.key_recomputes"));
      ]
    @ ladder_layer
    @ [
        ("lp.solves", float_of_int (c ladder_c "lp.solves"));
        ("lp.pivots", float_of_int (c ladder_c "lp.pivots"));
        ("lp.pivots_per_solve", per (c ladder_c "lp.pivots") (c ladder_c "lp.solves"));
        ("lp.memo_hit_ratio", ratio (c ladder_c "lp.memo_hits") (c ladder_c "lp.memo_misses"));
        ("lp.oracle_calls", float_of_int (c ladder_c "lp.oracle_calls"));
      ]
    @ stream_layer
    @ List.map (fun k -> (k, per_request k)) [ "parallel.tasks"; "parallel.steals"; "parallel.park_ns" ]
    @ bulk_layer
    @ List.map
        (fun k -> (k, per (c bulk_c k) bulk_n))
        [ "query.radix_probes"; "query.radix_join_tuples"; "query.selvec_kept_rows" ]
  in
  {
    layer;
    attempted = sweep_n + ladder_n + stream_n + bulk_n;
    failed = sweep_bad + ladder_bad + stream_bad + bulk_bad;
    obs =
      [
        ("corpus-sweep", sweep_obs); ("width-ladder", ladder_obs); ("server-stream", stream_obs);
        ("query-bulk", bulk_obs);
      ];
  }
