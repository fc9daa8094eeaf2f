(* hd_corpus: format detection and parsing (golden files), the
   manifest cache, deterministic sweeps, and the regression gate *)

module Hypergraph = Hd_hypergraph.Hypergraph
module Corpus = Hd_corpus.Corpus
module Manifest = Hd_corpus.Manifest
module Sweep = Hd_corpus.Sweep
module Regression = Hd_corpus.Regression
module Mini = Hd_instances.Mini_corpus
module Obs = Hd_obs.Obs
module Json = Obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* dune runtest runs in test/'s build dir; dune exec from the root *)
let golden name =
  let p = Filename.concat "corpus_golden" name in
  if Sys.file_exists p then p else Filename.concat "test" p

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* parsing: golden files                                               *)
(* ------------------------------------------------------------------ *)

let test_good_hg () =
  let h = Corpus.load_file (golden "good.hg") in
  check_int "vertices" 4 (Hypergraph.n_vertices h);
  check_int "edges" 4 (Hypergraph.n_edges h);
  check_string "edge name" "e1" (Hypergraph.edge_name h 0)

let test_good_cq () =
  let h = Corpus.load_file (golden "good.cq") in
  (* the head atom is blanked: only the three body atoms remain, and
     the head variables do not become extra vertices *)
  check_int "vertices" 3 (Hypergraph.n_vertices h);
  check_int "edges" 3 (Hypergraph.n_edges h);
  check_string "first body atom" "r" (Hypergraph.edge_name h 0)

let test_detect () =
  check "atoms" true (Corpus.detect "e(a,b)." = Corpus.Atoms);
  check "cq" true (Corpus.detect "q(X) :- e(X,Y)." = Corpus.Cq);
  (* a ":-" inside a comment is not a rule separator *)
  check "comment hides :-" true
    (Corpus.detect "% q(X) :- e(X,Y)\ne(a,b)." = Corpus.Atoms)

let expect_parse_failure path ~fragments =
  match Corpus.load_file path with
  | _ -> Alcotest.failf "%s parsed but should not have" path
  | exception Failure msg ->
      List.iter
        (fun fragment ->
          check
            (Printf.sprintf "%s message has %S (got %S)" path fragment msg)
            true
            (contains ~needle:fragment msg))
        fragments

let test_malformed_hg () =
  (* the error names the file, not just a line number *)
  expect_parse_failure (golden "malformed.hg")
    ~fragments:[ "malformed.hg"; "line 3"; "e2" ]

let test_malformed_cq () =
  (* blanking the rule head keeps newlines, so the reported line still
     points into the original file: the bad '.' is on line 4 *)
  expect_parse_failure (golden "malformed.cq")
    ~fragments:[ "malformed.cq"; "line 4"; "s" ]

(* fuzz: byte mutants of good.hg and good.cq either parse or fail with
   a [Failure] that names the reader, the source and a line; any other
   exception fails the property *)
let prop_mutants_fail_closed ~reader ~grammar ~seed parse =
  let text = In_channel.with_open_bin (golden seed) In_channel.input_all in
  let source = "fuzz-" ^ seed in
  QCheck.Test.make ~count:2000
    ~name:(Printf.sprintf "%s mutants parse or fail located" seed)
    (Mutants.arbitrary ~grammar [ text ])
    (fun text ->
      match parse ~source text with
      | _ -> true
      | exception Failure msg ->
          Scanf.sscanf_opt msg "%s@: %s@, line %u: " (fun r s _ -> r = reader && s = source)
          = Some true)

let prop_hg_mutants =
  prop_mutants_fail_closed ~reader:"Hg_format" ~grammar:"(),.%_ \n\tabe12" ~seed:"good.hg"
    (fun ~source text -> ignore (Hd_hypergraph.Hg_format.parse_string ~source text))

let prop_cq_mutants =
  prop_mutants_fail_closed ~reader:"Cq" ~grammar:"(),.:-%_\"' \nXYZrst" ~seed:"good.cq"
    (fun ~source text -> ignore (Hd_query.Cq.parse_string ~source text))

let test_name_of_path () =
  check_string "hg" "adder_05" (Corpus.name_of_path "/x/y/adder_05.hg");
  check_string "bare" "q1" (Corpus.name_of_path "q1")

(* ------------------------------------------------------------------ *)
(* the bundled mini-corpus                                             *)
(* ------------------------------------------------------------------ *)

let test_mini_corpus_parses () =
  check "at least 50 bundled instances" true (Mini.total () >= 50);
  check "two collections" true
    (Mini.collection_names () = [ "csp-synth"; "cq-mini" ]);
  List.iter
    (fun (collection, files) ->
      check (collection ^ " non-empty") true (files <> []);
      List.iter
        (fun (filename, text) ->
          let h = Corpus.parse_string ~source:filename text in
          check (filename ^ " has vertices") true (Hypergraph.n_vertices h > 0);
          check (filename ^ " has edges") true (Hypergraph.n_edges h > 0))
        files)
    (Mini.collections ())

let test_mini_corpus_deterministic () =
  (* same bytes on every call: the on-disk cache stays valid *)
  check "stable" true (Mini.collections () = Mini.collections ())

(* ------------------------------------------------------------------ *)
(* manifest: materialisation, cache hits/misses, scanning              *)
(* ------------------------------------------------------------------ *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hd_corpus_test_%d_%d" (Unix.getpid ()) !n)
    in
    (* the manifest creates missing directories itself *)
    d

let counter name = Obs.Counter.value (Obs.Counter.make name)

let test_manifest_cache () =
  Obs.enable ();
  let root = fresh_dir () in
  let hits0 = counter "corpus.cache_hits"
  and misses0 = counter "corpus.cache_misses" in
  let entries = Manifest.ensure ~root "cq-mini" in
  let n = List.length entries in
  check "bundled collection non-empty" true (n > 0);
  (* first materialisation: every file written, nothing found *)
  check_int "cold misses" n (counter "corpus.cache_misses" - misses0);
  check_int "cold hits" 0 (counter "corpus.cache_hits" - hits0);
  let entries2 = Manifest.ensure ~root "cq-mini" in
  (* second run: every file found, nothing written *)
  check_int "warm hits" n (counter "corpus.cache_hits" - hits0);
  check_int "warm misses" n (counter "corpus.cache_misses" - misses0);
  check "same entries" true (entries = entries2);
  List.iter
    (fun (e : Manifest.entry) ->
      check (e.Manifest.path ^ " exists") true (Sys.file_exists e.Manifest.path))
    entries

let test_manifest_unknown_collection () =
  match Manifest.ensure ~root:(fresh_dir ()) "no-such-collection" with
  | _ -> Alcotest.fail "unknown collection accepted"
  | exception Invalid_argument msg ->
      check "lists bundled collections" true (contains ~needle:"csp-synth" msg)

let test_manifest_scan () =
  let root = fresh_dir () in
  let ensured = Manifest.ensure ~root "cq-mini" in
  let scanned = Manifest.scan root in
  check_int "scan finds what ensure wrote" (List.length ensured)
    (List.length scanned);
  List.iter
    (fun (e : Manifest.entry) ->
      check_string "collection" "cq-mini" e.Manifest.collection)
    scanned;
  (* scan is sorted by (collection, name) *)
  let names = List.map (fun (e : Manifest.entry) -> e.Manifest.name) scanned in
  check "sorted" true (names = List.sort compare names);
  (* files directly under the root form a collection named after it *)
  let flat = fresh_dir () in
  Unix.mkdir flat 0o755;
  let oc = open_out (Filename.concat flat "one.hg") in
  output_string oc "e(a,b).\n";
  close_out oc;
  match Manifest.scan flat with
  | [ e ] ->
      check_string "root collection" (Filename.basename flat)
        e.Manifest.collection;
      check_string "root instance" "one" e.Manifest.name
  | entries -> Alcotest.failf "expected 1 entry, got %d" (List.length entries)

(* ------------------------------------------------------------------ *)
(* sweeps: determinism, skips, roster validation                       *)
(* ------------------------------------------------------------------ *)

let deterministic_budget = { Hd_engine.Budget.time_limit = None; max_states = Some 2000 }

let small_instances () =
  let texts =
    match List.assoc_opt "cq-mini" (Mini.collections ()) with
    | Some files -> files
    | None -> Alcotest.fail "cq-mini missing"
  in
  List.filteri (fun i _ -> i < 8) texts
  |> List.map (fun (filename, text) ->
         ( "cq-mini",
           Corpus.name_of_path filename,
           Corpus.parse_string ~source:filename text ))

let row_key (r : Sweep.row) = (r.Sweep.name, r.Sweep.winner, r.Sweep.width, r.Sweep.exact)

let test_sweep_deterministic () =
  let instances = small_instances () in
  let sweep () =
    Sweep.sweep_loaded ~jobs:1 ~roster:[ "min-fill-ghw"; "bb-ghw" ]
      ~budget:deterministic_budget ~seed:1 instances
  in
  let a = sweep () and b = sweep () in
  (* the winner table is stable run to run at -j 1 under a state-capped
     budget: winners never depend on wall-clock *)
  check "winner tables equal" true
    (List.map row_key a.Sweep.rows = List.map row_key b.Sweep.rows);
  check_int "all swept" (List.length instances) (List.length a.Sweep.rows);
  let s = Sweep.summarise a in
  check_int "summary total" (List.length instances) s.Sweep.total;
  check_int "coverage buckets" 5 (Array.length s.Sweep.coverage);
  (* every swept instance lands in exactly one width bucket *)
  check_int "coverage accounts for every instance" s.Sweep.total
    (Array.fold_left ( + ) s.Sweep.gt5 s.Sweep.coverage)

let test_sweep_parallel_matches_sequential () =
  let instances = small_instances () in
  let run jobs =
    Sweep.sweep_loaded ~jobs ~roster:[ "min-fill-ghw"; "bb-ghw" ]
      ~budget:deterministic_budget ~seed:1 instances
  in
  let seq = run 1 and par = run 2 in
  check "parallel sweep agrees with sequential" true
    (List.map row_key seq.Sweep.rows = List.map row_key par.Sweep.rows)

let test_sweep_unknown_solver () =
  match
    Sweep.sweep_loaded ~roster:[ "no-such-solver" ]
      ~budget:deterministic_budget (small_instances ())
  with
  | _ -> Alcotest.fail "unknown roster member accepted"
  | exception Invalid_argument msg ->
      check "names the bad solver" true (contains ~needle:"no-such-solver" msg)

let test_sweep_skips_malformed () =
  let root = fresh_dir () in
  let entries = Manifest.ensure ~root "cq-mini" in
  let bad = Filename.concat root "broken.cq" in
  let oc = open_out bad in
  output_string oc "q(X) :- e(X,\n";
  close_out oc;
  let report =
    Sweep.sweep ~roster:[ "min-fill-ghw" ] ~budget:deterministic_budget
      (Manifest.scan root)
  in
  check_int "good instances swept" (List.length entries)
    (List.length report.Sweep.rows);
  (match report.Sweep.skipped with
  | [ (path, msg) ] ->
      check "skip names the file" true (contains ~needle:"broken.cq" path);
      check "skip keeps the parse error" true (contains ~needle:"broken.cq" msg)
  | skipped -> Alcotest.failf "expected 1 skip, got %d" (List.length skipped));
  let s = Sweep.summarise report in
  check_int "summary counts the skip" 1 s.Sweep.skipped_count

(* probe members that return at once, recording the time share each
   was handed: with nothing spent, the last member of the roster must
   see (almost) the whole instance budget *)
let test_sweep_shares_roll_over () =
  let module S = Hd_engine.Solver in
  let seen = Array.make 3 None in
  let roster =
    List.init 3 (fun i ->
        let name = Printf.sprintf "probe-share-%d" i in
        S.register
          {
            S.name;
            kind = S.Ghw;
            doc = "records its time share (test probe)";
            run =
              (fun ?seed:_ b _ ->
                seen.(i) <- Hd_engine.Budget.time_limit b;
                {
                  S.outcome = S.Bounds { lb = 0; ub = 1 };
                  visited = 0;
                  generated = 0;
                  elapsed = 0.0;
                  ordering = None;
                });
          };
        name)
  in
  (* one hyperedge: a single block, so each member gets its share as is *)
  let h = Hypergraph.create ~n:3 [ [ 0; 1; 2 ] ] in
  ignore
    (Sweep.sweep_loaded ~jobs:1 ~roster
       ~budget:{ Hd_engine.Budget.time_limit = Some 3.0; max_states = None }
       [ ("probe", "edge", h) ]);
  let share i =
    match seen.(i) with Some t -> t | None -> Alcotest.failf "member %d unlimited" i
  in
  check "first member: a third" true (share 0 > 0.8 && share 0 <= 1.0);
  check "last member: the whole remainder" true
    (share 2 > 2.5 && share 2 <= 3.0)

(* ------------------------------------------------------------------ *)
(* the regression gate                                                 *)
(* ------------------------------------------------------------------ *)

let jrow ?(seconds = 0.2) ~name ~width ~exact () =
  Json.Obj
    [
      ("collection", Json.String "c");
      ("instance", Json.String name);
      ("width", Json.Int width);
      ("exact", Json.Bool exact);
      ("seconds", Json.Float seconds);
    ]

let jdoc rows = Json.Obj [ ("instances", Json.List rows) ]

let messages failures =
  List.map (fun (f : Regression.failure) -> f.Regression.message) failures

let test_regression_clean () =
  let doc =
    jdoc [ jrow ~name:"a" ~width:2 ~exact:true (); jrow ~name:"b" ~width:3 ~exact:false () ]
  in
  check_int "self-diff is clean" 0
    (List.length (Regression.diff ~baseline:doc ~current:doc ()));
  (* improvements and new instances are fine *)
  let better =
    jdoc
      [
        jrow ~name:"a" ~width:1 ~exact:true ();
        jrow ~name:"b" ~width:3 ~exact:true ();
        jrow ~name:"new" ~width:9 ~exact:false ();
      ]
  in
  check_int "improvement is clean" 0
    (List.length (Regression.diff ~baseline:doc ~current:better ()))

let test_regression_width () =
  let baseline = jdoc [ jrow ~name:"a" ~width:2 ~exact:false () ] in
  let current = jdoc [ jrow ~name:"a" ~width:4 ~exact:false () ] in
  match Regression.diff ~baseline ~current () with
  | [ f ] ->
      check "width failure" true
        (contains ~needle:"width regressed" f.Regression.message)
  | fs -> Alcotest.failf "expected 1 failure, got %s" (String.concat "; " (messages fs))

let test_regression_missing_and_exactness () =
  let baseline =
    jdoc [ jrow ~name:"gone" ~width:2 ~exact:true (); jrow ~name:"a" ~width:2 ~exact:true () ]
  in
  let current = jdoc [ jrow ~name:"a" ~width:2 ~exact:false () ] in
  let fs = Regression.diff ~baseline ~current () in
  check_int "two failures" 2 (List.length fs);
  check "missing reported" true
    (List.exists (fun m -> contains ~needle:"missing" m) (messages fs));
  check "exactness reported" true
    (List.exists (fun m -> contains ~needle:"exactness" m) (messages fs))

let test_regression_times () =
  let baseline =
    jdoc
      [
        jrow ~name:"slow" ~width:2 ~exact:true ~seconds:0.2 ();
        jrow ~name:"tiny" ~width:2 ~exact:true ~seconds:0.01 ();
      ]
  in
  let current =
    jdoc
      [
        jrow ~name:"slow" ~width:2 ~exact:true ~seconds:0.5 ();
        jrow ~name:"tiny" ~width:2 ~exact:true ~seconds:0.04 ();
      ]
  in
  (* times are ignored by default *)
  check_int "no time checks by default" 0
    (List.length (Regression.diff ~baseline ~current ()));
  (match Regression.diff ~check_times:true ~baseline ~current () with
  | [ f ] ->
      check "slowdown reported" true
        (contains ~needle:"slowdown" f.Regression.message);
      check_string "on the slow instance" "slow" f.Regression.instance
  | fs -> Alcotest.failf "expected 1 failure, got %s" (String.concat "; " (messages fs)))

let test_regression_sweep_roundtrip () =
  (* a real sweep report self-diffs clean through JSON, both as the
     bare corpus section and wrapped the way BENCH_report.json nests it *)
  let report =
    Sweep.sweep_loaded ~jobs:1 ~roster:[ "min-fill-ghw" ]
      ~budget:deterministic_budget (small_instances ())
  in
  let section = Sweep.to_json report in
  let reparsed = Json.parse (Json.to_string section) in
  check_int "bare section" 0
    (List.length (Regression.diff ~baseline:reparsed ~current:section ()));
  let wrapped = Json.Obj [ ("corpus", section) ] in
  check_int "wrapped document" 0
    (List.length (Regression.diff ~baseline:wrapped ~current:section ()))

let () =
  Alcotest.run "hd_corpus"
    [
      ( "parsing",
        [
          Alcotest.test_case "good.hg" `Quick test_good_hg;
          Alcotest.test_case "good.cq" `Quick test_good_cq;
          Alcotest.test_case "detect" `Quick test_detect;
          Alcotest.test_case "malformed.hg names file+line" `Quick
            test_malformed_hg;
          Alcotest.test_case "malformed.cq keeps line numbers" `Quick
            test_malformed_cq;
          Alcotest.test_case "name_of_path" `Quick test_name_of_path;
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 5 |]))
            [ prop_hg_mutants; prop_cq_mutants ] );
      ( "mini-corpus",
        [
          Alcotest.test_case "all instances parse" `Quick
            test_mini_corpus_parses;
          Alcotest.test_case "deterministic" `Quick
            test_mini_corpus_deterministic;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "cache hits and misses" `Quick test_manifest_cache;
          Alcotest.test_case "unknown collection" `Quick
            test_manifest_unknown_collection;
          Alcotest.test_case "scan" `Quick test_manifest_scan;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "deterministic at -j 1" `Quick
            test_sweep_deterministic;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_sweep_parallel_matches_sequential;
          Alcotest.test_case "unknown solver rejected" `Quick
            test_sweep_unknown_solver;
          Alcotest.test_case "malformed instances skipped" `Quick
            test_sweep_skips_malformed;
          Alcotest.test_case "time shares roll over" `Quick
            test_sweep_shares_roll_over;
        ] );
      ( "regression",
        [
          Alcotest.test_case "clean diffs" `Quick test_regression_clean;
          Alcotest.test_case "width regression" `Quick test_regression_width;
          Alcotest.test_case "missing + exactness" `Quick
            test_regression_missing_and_exactness;
          Alcotest.test_case "time checks opt-in" `Quick test_regression_times;
          Alcotest.test_case "sweep report round-trips" `Quick
            test_regression_sweep_roundtrip;
        ] );
    ]
