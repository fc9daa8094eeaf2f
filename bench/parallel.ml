(* the per-layer payoff of the work-stealing scheduler: blocks
   fork/join, hash-distributed A*, and the partitioned columnar passes
   each race -j N against their sequential twin, every row sharing one
   schema {layer, instance, jobs, seconds_j1, seconds, speedup_vs_j1};
   the original portfolio race keeps its rows under layer "portfolio".

   Determinism is always hard: a parallel result that differs from its
   -j 1 twin fails the experiment on any machine.  The >= 1.5x speedup
   gate on >= 2 scheduler layers is enforced only on a machine with
   >= 4 cores running -j >= 4 -- everywhere else (CI's -j 2 smoke job,
   laptops) the speedup column is report-only. *)

open Harness

let run scale =
  let module Sched = Hd_engine.Scheduler in
  let module Sv = Hd_engine.Solver in
  Hd_parallel.Registry.ensure ();
  let cores = Domain.recommended_domain_count () in
  let jobs = max 1 scale.jobs in
  let workers = max 1 (jobs - 1) in
  header
    (Printf.sprintf "Parallel -- scheduler layers, -j %d vs -j 1 (%d cores)"
       jobs cores);
  Printf.printf "%-10s %-14s | %8s | %8s | %7s  %s\n" "layer" "instance" "-j 1"
    (Printf.sprintf "-j %d" jobs)
    "speedup" "notes";
  let same_checks = ref [] in
  let check_same layer what same =
    same_checks :=
      Holds (same, Printf.sprintf "%s: parallel %s differs from -j 1" layer what)
      :: !same_checks
  in
  let row ?(extra = []) ?(notes = "") ~layer ~instance t1 t2 =
    let speedup = if t2 > 0.0 then t1 /. t2 else 1.0 in
    Printf.printf "%-10s %-14s | %7.2fs | %7.2fs | %6.2fx  %s\n" layer instance
      t1 t2 speedup notes;
    ( (layer, speedup),
      Obs.Json.Obj
        ([
           ("layer", Obs.Json.String layer);
           ("instance", Obs.Json.String instance);
           ("jobs", Obs.Json.Int jobs);
           ("seconds_j1", Obs.Json.Float t1);
           ("seconds", Obs.Json.Float t2);
           ("speedup_vs_j1", Obs.Json.Float speedup);
         ]
        @ extra) )
  in
  (* one scheduler serves all three layer races; it starts worker
     domains as each race forks, as the CLIs' schedulers do *)
  let blocks_row, hdastar_row, columnar_row =
    Sched.with_scheduler ~workers @@ fun sched ->
    (* layer "blocks": Engine.run forks the biconnected blocks of a
       cut-vertex chain onto the scheduler its budget carries *)
    let blocks_row =
      let copies = max 6 (2 * jobs) in
      let chain = Hd_instances.Graphs.chain ~copies (graph "myciel4") in
      let solve ?scheduler () =
        Hd_engine.Engine.run_by_name ~seed:1 "bb-tw"
          (within ?scheduler scale)
          (Sv.Graph chain)
      in
      let seq, t1 = time solve in
      let par, t2 = time (solve ~scheduler:sched) in
      check_same "blocks" "outcome" (par.Sv.outcome = seq.Sv.outcome);
      check_same "blocks" "witness" (par.Sv.ordering = seq.Sv.ordering);
      row ~layer:"blocks"
        ~instance:(Printf.sprintf "myciel4 x%d" copies)
        ~notes:(outcome_string par.Sv.outcome)
        ~extra:[ ("outcome", Obs.Json.String (outcome_string par.Sv.outcome)) ]
        t1 t2
    in
    (* layer "hdastar": the hash-distributed open list on the scheduler
       vs one HDA* worker without one (the deduplicating A*; plain
       astar-tw needs ~6 s on grid6, and myciel4 solves in 0.02 s,
       too fast to time); both must prove the same width when neither
       hits the budget *)
    let hdastar_row =
      let name = "grid6" in
      let g = graph name in
      let solve ?scheduler () =
        Hd_search.Solvers.of_int
          (Hd_parallel.Hdastar.Tw.solve ~within:(within ?scheduler scale) ~seed:1 g)
      in
      let seq, t1 = time solve in
      let par, t2 = time (solve ~scheduler:sched) in
      let notes =
        match (seq.Sv.outcome, par.Sv.outcome) with
        | Sv.Exact a, Sv.Exact b ->
            check_same "hdastar" "width" (a = b);
            outcome_string par.Sv.outcome
        | _ -> "budget-capped"
      in
      row ~layer:"hdastar" ~instance:name ~notes
        ~extra:
          [
            ("outcome", Obs.Json.String (outcome_string par.Sv.outcome));
            ("outcome_j1", Obs.Json.String (outcome_string seq.Sv.outcome));
          ]
        t1 t2
    in
    (* layer "columnar": Yannakakis semijoin/join passes partitioned
       over the scheduler; answers are byte-identical by construction *)
    let columnar_row =
      let module Cq = Hd_query.Cq in
      let module Db = Hd_query.Db in
      let module Y = Hd_query.Yannakakis in
      let n, m = if scale.full then (500, 40_000) else (300, 12_000) in
      let rng = Random.State.make [| 7 |] in
      let db = Db.create () in
      Db.add db ~name:"e"
        (List.init m (fun _ ->
             [|
               Printf.sprintf "v%d" (Random.State.int rng n);
               Printf.sprintf "v%d" (Random.State.int rng n);
             |]));
      let q =
        Cq.parse_string ~source:"bench"
          "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X)."
      in
      let seq, t1 = time (fun () -> Y.run ~mode:Y.Answers db q) in
      let par, t2 = time (fun () -> Y.run ~par:sched ~mode:Y.Answers db q) in
      check_same "columnar" "count" (par.Y.count = seq.Y.count);
      check_same "columnar" "answers" (par.Y.answers = seq.Y.answers);
      row ~layer:"columnar"
        ~instance:(Printf.sprintf "triangle %dv/%de" n m)
        ~notes:(Printf.sprintf "%d answers" par.Y.count)
        ~extra:[ ("answers", Obs.Json.Int par.Y.count) ]
        t1 t2
    in
    (blocks_row, hdastar_row, columnar_row)
  in
  (* layer "portfolio": the original solver race, unchanged semantics *)
  let portfolio_rows =
    List.map
      (fun name ->
        let g = graph name in
        let seq, t1 =
          time (fun () ->
              Hd_parallel.Portfolio.solve_tw ~jobs:1 ~budget:(budget scale)
                ~seed:1 g)
        in
        let par, t2 =
          time (fun () ->
              Hd_parallel.Portfolio.solve_tw ~jobs ~budget:(budget scale)
                ~seed:1 g)
        in
        let winner =
          Option.value par.Hd_parallel.Portfolio.winner ~default:"-"
        in
        row ~layer:"portfolio" ~instance:name
          ~notes:
            (Printf.sprintf "%s  winner %s"
               (outcome_string par.Hd_parallel.Portfolio.outcome)
               winner)
          ~extra:
            [
              ("domains", Obs.Json.Int par.Hd_parallel.Portfolio.domains);
              ("winner", Obs.Json.String winner);
              ( "outcome",
                Obs.Json.String
                  (outcome_string par.Hd_parallel.Portfolio.outcome) );
              ( "outcome_j1",
                Obs.Json.String
                  (outcome_string seq.Hd_parallel.Portfolio.outcome) );
            ]
          t1 t2)
      [ "queen6_6"; "grid6" ]
  in
  let rows = [ blocks_row; hdastar_row; columnar_row ] @ portfolio_rows in
  let scheduler_layers = [ "blocks"; "hdastar"; "columnar" ] in
  let layers_at_speedup =
    List.length
      (List.filter
         (fun l ->
           List.exists (fun ((l', s), _) -> l' = l && s >= 1.5) rows)
         scheduler_layers)
  in
  let enforce = cores >= 4 && jobs >= 4 in
  let speedup_pass = layers_at_speedup >= 2 in
  let determinism = List.rev !same_checks in
  let mismatches = List.filter_map failure determinism in
  Printf.printf
    "\ndeterminism: %s   speedup gate (>=1.5x on >=2 layers): %s%s\n"
    (if mismatches = [] then "ok" else "FAIL")
    (if speedup_pass then "pass"
     else Printf.sprintf "%d/2 layers" layers_at_speedup)
    (if enforce then "" else "  [report-only: needs >= 4 cores and -j >= 4]");
  (* determinism is hard everywhere; the speedup bar only where enforced *)
  let verdict =
    gate ~enforced:true
      (Holds
         ( speedup_pass || not enforce,
           Printf.sprintf "%d of the scheduler layers reach 1.5x, need 2"
             layers_at_speedup )
      :: determinism)
  in
  section "parallel" ~verdict
    (Obs.Json.Obj
       [
         ("jobs", Obs.Json.Int jobs);
         ("recommended_domains", Obs.Json.Int cores);
         ("layers", Obs.Json.List (List.map snd rows));
         ( "determinism",
           Obs.Json.Obj
             [
               ("pass", Obs.Json.Bool (mismatches = []));
               ( "mismatches",
                 Obs.Json.List
                   (List.map (fun m -> Obs.Json.String m) mismatches) );
             ] );
         ( "gate",
           Obs.Json.Obj
             [
               ("enforced", Obs.Json.Bool enforce);
               ("required_speedup", Obs.Json.Float 1.5);
               ("required_layers", Obs.Json.Int 2);
               ("layers_at_speedup", Obs.Json.Int layers_at_speedup);
               ("pass", Obs.Json.Bool speedup_pass);
             ] );
       ])
