module Incumbent = Hd_core.Incumbent
module Engine = Hd_engine.Engine
module Solver = Hd_engine.Solver
module Budget = Hd_engine.Budget
module Scheduler = Hd_engine.Scheduler
module Obs = Hd_obs.Obs

let c_members = Obs.Counter.make "parallel.portfolio.members"
let c_closed = Obs.Counter.make "parallel.portfolio.closed"

type member_report = {
  member : string;
  outcome : Solver.outcome;
  elapsed : float;
}

type t = {
  outcome : Solver.outcome;
  ordering : int array option;
  winner : string option;
  members : member_report list;
  domains : int;
  elapsed : float;
}

let default_jobs () = Domain.recommended_domain_count ()

(* the incumbent read back as an outcome: closed means some racer
   proved optimality, whoever it was *)
let outcome_of inc =
  let lb, ub = Incumbent.bounds inc in
  if lb >= ub then Solver.Exact ub else Solver.Bounds { lb; ub }

(* Race the first [jobs] [members] sharing [inc], one fork/join task
   each on a scheduler with one executor per member (the joining caller
   is the last one), so every member runs at once; -j 1 runs the first
   member alone, inline.  A member's exception re-raises after all
   members have finished. *)
let race ~jobs ~inc members =
  let members =
    Array.of_list (List.filteri (fun i _ -> i < max 1 jobs) members)
  in
  let n = Array.length members in
  let started = Hd_engine.Clock.now () in
  let winner = Atomic.make None in
  let run (name, job) =
    let t0 = Hd_engine.Clock.now () in
    (* skip the real work when the race is already over *)
    let outcome =
      if Incumbent.closed inc || Incumbent.cancelled inc then outcome_of inc
      else job ()
    in
    (match outcome with
    | Solver.Exact _ ->
        (* first exact finisher is the winner *)
        ignore (Atomic.compare_and_set winner None (Some name))
    | Solver.Bounds _ -> ());
    { member = name; outcome; elapsed = Hd_engine.Clock.now () -. t0 }
  in
  Obs.Counter.add c_members n;
  let reports =
    Array.to_list
      (Scheduler.with_scheduler ~workers:(n - 1) (fun s ->
           Scheduler.map_array s run members))
  in
  let outcome = outcome_of inc in
  (match outcome with
  | Solver.Exact _ -> Obs.Counter.incr c_closed
  | Solver.Bounds _ -> ());
  {
    outcome;
    ordering = Incumbent.witness inc;
    winner = Atomic.get winner;
    members = reports;
    domains = List.length reports;
    elapsed = Hd_engine.Clock.now () -. started;
  }

(* Resolve a roster of (label, registry name) pairs into race members.
   Resolution happens eagerly on the calling domain so an unknown name
   fails before any domain spawns.  All members share one engine
   budget — one race-wide deadline, shared cancellation, and the shared
   incumbent — but each runs its own ticker, so [max_states] still caps
   each member separately.  Members run without block splitting: the
   race cooperates through the incumbent, and splitting (which isolates
   per-block sub-budgets) belongs above the portfolio, not below it. *)
let members_of ~budget ~inc ~seed roster problem =
  let b = Budget.of_spec ~incumbent:inc budget in
  List.mapi
    (fun i (label, name) ->
      let solver =
        match Solver.find name with
        | Some s -> s
        | None ->
            invalid_arg
              (Printf.sprintf "Portfolio: unknown solver %S (available: %s)"
                 name
                 (String.concat ", " (Solver.names ())))
      in
      ( label,
        fun () ->
          (Engine.run ~blocks:false ~seed:(seed + i) solver b problem)
            .Solver.outcome ))
    roster

let run_roster ?jobs ?(budget = { Budget.time_limit = None; max_states = None })
    ~seed roster problem =
  Registry.ensure ();
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let inc = Incumbent.create () in
  race ~jobs ~inc (members_of ~budget ~inc ~seed roster problem)

(* ordered by expected usefulness: the first [jobs] entries run; the
   [-b]/[-c] labels are reseeded copies of the same registered solver;
   member budgets carry no scheduler, so an [-par] A* is one worker *)
let tw_roster =
  [
    ("astar-tw", "astar-tw");
    ("bb-tw", "bb-tw");
    ("ga-tw", "ga-tw");
    ("astar-tw-par", "astar-tw-par");
    ("bb-tw-nopr2", "bb-tw-nopr2");
    ("ga-tw-b", "ga-tw");
    ("bb-tw-noreduce", "bb-tw-noreduce");
    ("ga-tw-c", "ga-tw");
  ]

let ghw_roster =
  [
    ("astar-ghw", "astar-ghw");
    ("bb-ghw", "bb-ghw");
    ("saiga-ghw", "saiga-ghw");
    ("astar-ghw-par", "astar-ghw-par");
    ("ga-ghw", "ga-ghw");
    ("bb-ghw-greedy", "bb-ghw-greedy");
    ("saiga-ghw-b", "saiga-ghw");
    ("ga-ghw-b", "ga-ghw");
  ]

let solve_tw ?jobs ?budget ?(seed = 0x90f) g =
  Obs.with_span "portfolio.solve_tw" @@ fun () ->
  run_roster ?jobs ?budget ~seed tw_roster (Solver.Graph g)

let solve_ghw ?jobs ?budget ?(seed = 0x91f) h =
  Obs.with_span "portfolio.solve_ghw" @@ fun () ->
  run_roster ?jobs ?budget ~seed ghw_roster (Solver.Hypergraph h)

let solve_named ?jobs ?budget ?(seed = 0x92f) ~names problem =
  Obs.with_span "portfolio.solve_named" @@ fun () ->
  let jobs = match jobs with Some j -> j | None -> List.length names in
  run_roster ~jobs ?budget ~seed (List.map (fun n -> (n, n)) names) problem

let pp ppf t =
  Format.fprintf ppf "%a on %d domain%s" Solver.pp_outcome t.outcome
    t.domains
    (if t.domains = 1 then "" else "s");
  match t.winner with
  | Some w -> Format.fprintf ppf ", won by %s" w
  | None -> ()
