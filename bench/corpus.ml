open Harness

(* the search and set-cover work of the corpus sweep at the CI scale
   (-states 4000), the same at -j 1 and -j 2: the per-state bounds and
   the greedy cover may get cheaper, but they must leave every expanded
   and generated state, and every cover call, where it was.
   search.minor_bounds counts the contraction bounds computed (minor
   memo misses): 14,730 while A* priced every child at its push, 4,391
   once it priced a state at its pop.  That change also re-recorded
   the expanded states and cover calls (6,716 / 5,595 / 18,344 /
   515,713 before): A* pushes children before their minor bound raises
   f, so its heap breaks f ties in another order.  Generated states
   and every width and exactness flag stayed as they were. *)
let corpus_gate_states = 4000

let corpus_baseline_counters =
  [
    ("search.nodes_expanded", 6_700);
    ("search.nodes_generated", 58_012);
    ("setcover.exact_calls", 5_616);
    ("setcover.greedy_calls", 18_349);
    ("setcover.exact_nodes", 516_160);
    ("search.minor_bounds", 4_391);
  ]

(* the words the -j 1 sweep allocates at the gate scale: minor words
   (the exact cover's per-node garbage was most of them) and words
   allocated straight into the major heap (major minus promoted: bucket
   arrays over 256 words).  Gc.counters sees the calling domain only,
   so the minor-words ceiling (measured, plus 5%) holds at -j 1 alone;
   it keeps the allocation, and with it server-stream's RSS headroom,
   from drifting back.  23.8 M measured with minor bounds priced at
   pop (30.0 M before) *)
let corpus_minor_words_ceiling = 25_000_000

let allocation f =
  let minor0, promoted0, major0 = Gc.counters () in
  let result = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  ( result,
    int_of_float (minor1 -. minor0),
    int_of_float (major1 -. major0 -. (promoted1 -. promoted0)) )

(* HyperBench-style corpus sweep (hd_corpus): materialise the bundled
   mini-corpus under _corpus/, race a ghw roster over every instance in
   parallel, and record the width / time / winner table plus the
   ghw<=5 coverage histogram as BENCH_report.json's "corpus" section.
   At -states 4000 the run fails (exit 1) unless the gated counters
   equal the recorded ones.  With -baseline FILE, diff the fresh sweep
   against a previous report and fail the run (exit 3) on width
   regressions or >2x slowdowns. *)
let run scale =
  header
    (Printf.sprintf "Corpus -- mini-HyperBench sweep, -j %d, %s" scale.jobs
       (match scale.states with
       | Some n -> Printf.sprintf "%d states/instance (deterministic)" n
       | None -> Printf.sprintf "%.1fs/instance" scale.time_limit));
  let entries = Hd_corpus.Manifest.ensure_all ~root:"_corpus" in
  Printf.printf "materialised %d instances under _corpus/ (collections: %s)\n"
    (List.length entries)
    (String.concat ", " (Hd_corpus.Manifest.bundled_collections ()));
  let (report, counts), minor_words, direct_major_words =
    allocation @@ fun () ->
    counter_deltas (List.map fst corpus_baseline_counters) @@ fun () ->
    Hd_corpus.Sweep.sweep ~jobs:scale.jobs ~budget:(budget scale) ~seed:1
      entries
  in
  Hd_corpus.Sweep.print report;
  let enforced = scale.states = Some corpus_gate_states in
  Printf.printf "\n%s %s\n"
    (String.concat ", "
       (List.map (fun (name, n) -> Printf.sprintf "%s %d" name n) counts))
    (if enforced then
       Printf.sprintf "(recorded: %s)"
         (String.concat ", "
            (List.map (fun (_, r) -> string_of_int r) corpus_baseline_counters))
     else Printf.sprintf "(gated at -states %d only)" corpus_gate_states);
  let gated_words = enforced && scale.jobs = 1 in
  Printf.printf "gc.minor_words %d, gc.direct_major_words %d %s\n" minor_words
    direct_major_words
    (if gated_words then
       Printf.sprintf "(minor words recorded at most %d)"
         corpus_minor_words_ceiling
     else
       Printf.sprintf "(gated at -j 1 -states %d only)" corpus_gate_states);
  let verdict =
    gate ~enforced
      (List.map2
         (fun (name, recorded) (_, n) -> Exact (name, recorded, n))
         corpus_baseline_counters counts
      @
      if gated_words then
        [ At_most ("gc.minor_words", corpus_minor_words_ceiling, minor_words) ]
      else [])
  in
  let json =
    match Hd_corpus.Sweep.to_json report with
    | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (fields
          @ [
              ( "counters",
                Obs.Json.Obj
                  (List.map
                     (fun (name, n) -> (name, Obs.Json.Int n))
                     (counts
                     @ [
                         ("gc.minor_words", minor_words);
                         ("gc.direct_major_words", direct_major_words);
                       ])) );
              ("gate", Obs.Json.String verdict);
            ])
    | _ -> assert false (* a sweep report is an object *)
  in
  let regressed =
    match scale.baseline with
    | None -> false
    | Some path -> (
        Printf.printf "\nregression gate: diffing against %s%s\n" path
          (if scale.widths_only then " (widths and exactness only)" else "");
        match
          Hd_corpus.Regression.check_file
            ~check_times:(not scale.widths_only)
            ~baseline_path:path
            (Hd_corpus.Sweep.to_json report)
        with
        | Ok () ->
            Printf.printf "regression gate: OK, nothing regressed\n";
            false
        | Error failures ->
            Printf.printf "regression gate: %d failure(s)\n"
              (List.length failures);
            List.iter
              (fun f -> Format.printf "  %a@." Hd_corpus.Regression.pp_failure f)
              failures;
            true)
  in
  section "corpus" ~verdict ~regressed json
