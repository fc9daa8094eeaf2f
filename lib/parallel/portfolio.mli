(** Portfolio search: race complementary solvers against one shared
    {!Hd_core.Incumbent.t}, as the fork/join tasks of a private
    {!Hd_engine.Scheduler} with one executor per member (its workers
    plus the caller).  Member budgets carry no scheduler, so blocks and
    the [-par] solvers inside a member run on that member's
    executor.

    For treewidth the roster is A*-tw, BB-tw and GA-tw (then ablation
    variants and reseeded GAs up to 8 members); for ghw it is A*-ghw,
    BB-ghw and SAIGA plus variants.  Every member prunes against the
    shared upper bound and publishes every improvement, so the anytime
    heuristics feed the exact solvers' pruning and the exact solvers'
    lower bounds stop the heuristics.  The race ends when the incumbent
    closes ([lb = ub], winner = first member to return [Exact]) or
    every member exhausts its budget.  A member that raises does not
    stop the others: its exception re-raises once all have finished.

    The returned width is deterministic for instances every exact
    member can finish: exact solvers prove the same optimum whatever
    the interleaving; only [winner] and timings may vary between runs
    and between [-j] values. *)

type member_report = {
  member : string;  (** roster name, e.g. ["astar-tw"] *)
  outcome : Hd_engine.Solver.outcome;
  elapsed : float;
}

type t = {
  outcome : Hd_engine.Solver.outcome;
      (** the incumbent at the end of the race *)
  ordering : int array option;  (** witness achieving the upper bound *)
  winner : string option;
      (** first member to return [Exact]; [None] when nobody closed *)
  members : member_report list;  (** per-member outcomes, roster order *)
  domains : int;  (** domains racing (= members raced, caller included) *)
  elapsed : float;
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val solve_tw :
  ?jobs:int ->
  ?budget:Hd_engine.Budget.spec ->
  ?seed:int ->
  Hd_graph.Graph.t ->
  t
(** [solve_tw ~jobs g] races the first [jobs] treewidth members (at
    most 8).  Members are resolved in the engine's solver registry and
    run against one shared {!Hd_engine.Budget.t} built from [budget]:
    one race-wide deadline and shared cancellation, while [max_states]
    still caps each member's own ticker.  [seed] derives every member's
    seed, so equal seeds give an equal-width result. *)

val solve_ghw :
  ?jobs:int ->
  ?budget:Hd_engine.Budget.spec ->
  ?seed:int ->
  Hd_hypergraph.Hypergraph.t ->
  t

val solve_named :
  ?jobs:int ->
  ?budget:Hd_engine.Budget.spec ->
  ?seed:int ->
  names:string list ->
  Hd_engine.Solver.problem ->
  t
(** [solve_named ~names problem] races an ad-hoc roster: each name is
    resolved in the engine's solver registry (filled by
    {!Registry.ensure}).  [jobs] defaults to the number of names, so
    every requested solver actually runs.
    @raise Invalid_argument on an unknown name, listing the registered
    ones, and when the members compute different widths (say [tw] and
    [ghw]), naming each member with its kind: they would share one
    incumbent, so one measure's bound would close the other's race. *)

val pp : Format.formatter -> t -> unit
