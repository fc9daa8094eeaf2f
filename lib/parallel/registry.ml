module S = Hd_engine.Solver
module Budget = Hd_engine.Budget
module Scheduler = Hd_engine.Scheduler
module Solvers = Hd_search.Solvers

let par =
  [
    Solvers.search ~kind:S.Tw ~input:S.primal_of ~result:Solvers.of_int
      ~name:"astar-tw-par"
      ~doc:"hash-distributed A* treewidth (HDA*; one worker: deduplicating A*-tw)"
      ~default_seed:0x7ea
      (fun ~within ~seed g -> Hdastar.Tw.solve ~within ~seed g);
    Solvers.search ~kind:S.Ghw ~input:S.hypergraph_of ~result:Solvers.of_int
      ~name:"astar-ghw-par"
      ~doc:"hash-distributed A* ghw (HDA*; one worker: deduplicating A*-ghw)"
      ~default_seed:0xa5a
      (fun ~within ~seed h -> Hdastar.Ghw.solve ~within ~seed h);
    {
      S.name = "saiga-ghw-par";
      kind = S.Ghw;
      doc = "saiga-ghw with one island per scheduler executor";
      run =
        (fun ?seed b p ->
          (* the island count is a search parameter, not a fork
             decision, so it ignores slices (unlike Step.executors):
             a sliced run evolves the same islands as one without slices *)
          let n_islands =
            match Budget.scheduler b with
            | Some s -> Scheduler.size s + 1
            | None -> 1
          in
          Hd_ga.Solvers.saiga ~n_islands ?seed b p);
    };
  ]

(* the first caller fills the table; a racing second one waits for it
   instead of reading a half-filled roster *)
let lock = Mutex.create ()
let registered = ref false

let ensure () =
  Mutex.protect lock @@ fun () ->
  if not !registered then begin
    registered := true;
    (* grouped by the width each solver optimises: the one order every
       listing shows *)
    let all = Solvers.all @ Hd_ga.Solvers.all @ par in
    List.iter
      (fun kind ->
        List.iter
          (fun (s : S.t) -> if s.kind = kind then Hd_engine.Solver.register s)
          all)
      [ S.Tw; S.Ghw; S.Fhw; S.Hw ]
  end
