module Hypergraph = Hd_hypergraph.Hypergraph
open Harness

(* the fhw and hw columns of the widths experiment at the CI scale
   (-states 3000), the LP solves and pivots they took (901 solves and
   7,996 pivots on the single-phase dual simplex before fhw-bb settled
   completions with a vertex packing; the two-phase primal simplex
   before that took 13,963 pivots for the same 901 solves), and det-k's
   work: the separators it tried (fixed: the enumeration prune may only
   skip subsets that cannot cover the connector) and the enumeration
   steps it walked to find them (1,041,894 before the prune).  The
   widths and the tried separators are fixed; solves, pivots and steps
   may drop, never rise *)
let widths_gate_states = 3000
let widths_baseline_solves = 648
let widths_baseline_pivots = 4_065
let widths_baseline_separators = 10_416
let widths_baseline_enum_steps = 60_935

let widths_baseline =
  [
    ("csp-synth/grid2d_02", "1*", "1*");
    ("cq-mini/path_02", "1*", "1*");
    ("csp-synth/clique_03", "3/2*", "2*");
    ("cq-mini/cycle_03", "3/2*", "2*");
    ("cq-mini/triangle", "3/2*", "2*");
    ("cq-mini/path_03", "1*", "1*");
    ("cq-mini/star_03", "1*", "1*");
    ("csp-synth/grid3d_02", "4/3*", "2*");
    ("cq-mini/cycle_04", "2*", "2*");
    ("cq-mini/path_04", "1*", "1*");
    ("cq-mini/snowflake_02", "1*", "1*");
    ("cq-mini/square_chord", "3/2*", "2*");
    ("cq-mini/wide_3x4", "3/2*", "2*");
    ("csp-synth/clique_04", "2*", "2*");
    ("cq-mini/cycle_05", "2*", "2*");
    ("cq-mini/star_05", "1*", "1*");
    ("cq-mini/cycle_06", "2*", "2*");
    ("cq-mini/path_06", "1*", "1*");
    ("cq-mini/snowflake_03", "1*", "1*");
    ("cq-mini/grid_2x3", "2*", "2*");
    ("cq-mini/tree_d3", "1*", "1*");
    ("csp-synth/adder_01", "5/3*", "2*");
    ("csp-synth/clique_05", "5/2*", "3*");
    ("csp-synth/grid2d_04", "9/4*", "3*");
    ("cq-mini/cycle_08", "2*", "2*");
    ("cq-mini/wide_4x5", "2*", "2*");
    ("cq-mini/path_08", "1*", "1*");
    ("cq-mini/star_08", "1*", "1*");
    ("csp-synth/clique_06", "3*", "3*");
    ("cq-mini/path_10", "1*", "1*");
    ("cq-mini/grid_3x3", "2*", "2*");
    ("csp-synth/bridge_01", "19/7*", "3*");
    ("cq-mini/wide_5x6", "2*", "2*");
    ("csp-synth/adder_02", "5/3*", "2*");
    ("csp-synth/clique_07", "7/2*", "4*");
    ("csp-synth/clique_08", "4*", "4*");
    ("csp-synth/grid2d_06", "[7/3,7/2]", "4*");
    ("csp-synth/adder_03", "5/3*", "2*");
    ("csp-synth/bridge_02", "19/7*", "3*");
    ("csp-synth/circuit_00", "3*", "3*");
    ("csp-synth/adder_04", "5/3*", "2*");
  ]

(* the full width ladder -- tw / ghw / fhw (exact rational) / hw --
   side by side on the corpus instances with |V| + |E| <= 50, recorded
   as BENCH_report.json's "widths" section (schema hd_lp/widths/3).
   CI smokes this under a -states budget so the numbers are
   machine-independent, and at -states 3000 the run fails (exit 1)
   unless the fhw and hw columns equal the recorded ones, det-k tried
   exactly the recorded separators, and the LP solves, LP pivots and
   det-k enumeration steps stay at most the recorded counts *)
let run scale =
  header "Widths -- tw / ghw / fhw / hw ladder on the smallest corpus instances";
  Hd_parallel.Registry.ensure ();
  let entries = Hd_corpus.Manifest.ensure_all ~root:"_corpus" in
  let loaded, _skipped = Hd_corpus.Sweep.load entries in
  let smallest =
    let weight h = Hypergraph.n_vertices h + Hypergraph.n_edges h in
    List.sort (fun (_, a) (_, b) -> compare (weight a) (weight b)) loaded
    |> List.filter (fun (_, h) -> weight h <= 50)
  in
  Printf.printf "%-20s %4s %4s | %8s %8s %10s %8s | %8s\n" "instance" "V" "H"
    "tw" "ghw" "fhw" "hw" "time";
  let rows, work =
    counter_deltas
      [
        "lp.solves";
        "lp.pivots";
        "search.live_lb_skips";
        "detk.separators";
        "detk.enum_steps";
      ]
    @@ fun () ->
    List.map
      (fun ((e : Hd_corpus.Manifest.entry), h) ->
        let problem = Hd_engine.Solver.Hypergraph h in
        let run name =
          Hd_engine.Engine.run_by_name ~seed:1 name
            (within scale)
            problem
        in
        let started = Hd_engine.Clock.now () in
        let tw = run "astar-tw" in
        let ghw = run "bb-ghw" in
        let fhw =
          Hd_search.Ordering_search.Fhw.bb ~within:(within scale) ~seed:1 h
        in
        let hw = run "hw-det-k" in
        let secs = Hd_engine.Clock.now () -. started in
        let fhw_str, fhw_exact =
          match fhw.Hd_search.Ordering_search.outcome with
          | Hd_search.Ordering_search.Exact q ->
              (Hd_lp.Rat.to_string q ^ "*", true)
          | Hd_search.Ordering_search.Bounds { lb; ub } ->
              ( Printf.sprintf "[%s,%s]" (Hd_lp.Rat.to_string lb)
                  (Hd_lp.Rat.to_string ub),
                false )
        in
        let hw_str =
          match hw.Hd_engine.Solver.outcome with
          | Hd_engine.Solver.Exact w -> Printf.sprintf "%d*" w
          | Hd_engine.Solver.Bounds _ -> "t/o"
        in
        let name = e.Hd_corpus.Manifest.collection ^ "/" ^ e.Hd_corpus.Manifest.name in
        Printf.printf "%-20s %4d %4d | %8s %8s %10s %8s | %7.2fs\n" name
          (Hypergraph.n_vertices h) (Hypergraph.n_edges h)
          (outcome_string tw.Hd_engine.Solver.outcome)
          (outcome_string ghw.Hd_engine.Solver.outcome)
          fhw_str hw_str secs;
        ( (name, fhw_str, hw_str),
          Obs.Json.Obj
            [
              ("instance", Obs.Json.String name);
              ("vertices", Obs.Json.Int (Hypergraph.n_vertices h));
              ("edges", Obs.Json.Int (Hypergraph.n_edges h));
              ("tw", Obs.Json.String (outcome_string tw.Hd_engine.Solver.outcome));
              ( "ghw",
                Obs.Json.String (outcome_string ghw.Hd_engine.Solver.outcome) );
              ("fhw", Obs.Json.String fhw_str);
              ("fhw_exact", Obs.Json.Bool fhw_exact);
              ("hw", Obs.Json.String hw_str);
              ("seconds", Obs.Json.Float secs);
            ] ))
      smallest
  in
  let solves = List.assoc "lp.solves" work
  and pivots = List.assoc "lp.pivots" work
  and skips = List.assoc "search.live_lb_skips" work
  and separators = List.assoc "detk.separators" work
  and steps = List.assoc "detk.enum_steps" work in
  let columns = List.map fst rows and rows = List.map snd rows in
  Printf.printf
    "\nlp: %d solves, %d pivots (%d completions settled by a vertex packing); \
     det-k: %d separators, %d steps"
    solves pivots skips separators steps;
  let enforced = scale.states = Some widths_gate_states in
  if enforced then
    Printf.printf
      " (recorded: at most %d solves, %d pivots; %d separators, at most %d \
       steps)\n"
      widths_baseline_solves widths_baseline_pivots widths_baseline_separators
      widths_baseline_enum_steps
  else Printf.printf " (gated at -states %d only)\n" widths_gate_states;
  let verdict =
    gate ~enforced
      [
        Holds
          ( List.sort compare columns = List.sort compare widths_baseline,
            String.concat "\n"
              ("the fhw or hw column differs from the recorded one at"
              :: List.filter_map
                   (fun ((i, f, w) as row) ->
                     if List.mem row widths_baseline then None
                     else Some (Printf.sprintf "  %s: fhw %s, hw %s" i f w))
                   columns) );
        At_most ("lp.solves", widths_baseline_solves, solves);
        At_most ("lp.pivots", widths_baseline_pivots, pivots);
        Exact ("detk.separators", widths_baseline_separators, separators);
        At_most ("detk.enum_steps", widths_baseline_enum_steps, steps);
      ]
  in
  section "widths" ~verdict
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String "hd_lp/widths/3");
         ("instances", Obs.Json.List rows);
         ( "lp",
           Obs.Json.Obj
             [
               ("lp.solves", Obs.Json.Int solves);
               ("lp.pivots", Obs.Json.Int pivots);
               ("search.live_lb_skips", Obs.Json.Int skips);
               ("recorded_solves", Obs.Json.Int widths_baseline_solves);
               ("recorded_pivots", Obs.Json.Int widths_baseline_pivots);
             ] );
         ( "detk",
           Obs.Json.Obj
             [
               ("detk.separators", Obs.Json.Int separators);
               ("recorded_separators", Obs.Json.Int widths_baseline_separators);
               ("detk.enum_steps", Obs.Json.Int steps);
               ("recorded_enum_steps", Obs.Json.Int widths_baseline_enum_steps);
             ] );
         ("gate", Obs.Json.String verdict);
       ])
