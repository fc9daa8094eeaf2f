(** Corpus sweeps: race registered solvers over hundreds of instances
    in parallel, HyperBench style.

    A sweep takes a set of corpus instances (from {!Manifest} entries
    or already-loaded hypergraphs), a {e roster} of named solvers from
    the {!Hd_engine.Solver} registry, and a per-instance
    {!Hd_engine.Budget} spec.  Instances fan out as fork/join tasks
    ({!Hd_engine.Scheduler.map_array}) on a private scheduler sized to
    [jobs], and instance budgets carry no scheduler; within one
    instance the roster members run as sequential time trials
    under {!Hd_engine.Budget.sub} shares of the instance budget (equal
    splits, unspent time rolling over), each through
    {!Hd_engine.Engine.run} — so block splitting and the whole anytime
    machinery apply uniformly.

    The {e winner} of an instance is the member with the lowest upper
    bound, exactness breaking ties, then roster order — deliberately
    not wall-clock, so the winner table is deterministic at [jobs = 1]
    under state-capped budgets (the regression gate and the tests rely
    on this).  An instance where no member proves optimality counts as
    a {e timeout}.

    Counters: [corpus.swept], [corpus.exact], [corpus.timeouts],
    [corpus.skipped], and one [corpus.winner.<solver>] per roster
    member.  {!to_json} renders the report as the [corpus] section of
    [BENCH_report.json] (see {e docs/BENCHMARKING.md} for the schema);
    {!Regression} diffs two such sections. *)

(** One roster member's run on one instance. *)
type solver_run = {
  solver : string;
  lb : int;
  ub : int;
  exact : bool;  (** the optimum was proved within the share *)
  seconds : float;
}

(** One instance's line in the sweep table. *)
type row = {
  collection : string;
  name : string;
  vertices : int;
  edges : int;
  runs : solver_run list;  (** roster order *)
  winner : string;
  width : int;  (** the winner's upper bound *)
  exact : bool;
  seconds : float;  (** whole-roster wall clock for this instance *)
}

type report = {
  roster : string list;
  jobs : int;
  budget : Hd_engine.Budget.spec;  (** per-instance *)
  rows : row list;  (** in input order *)
  skipped : (string * string) list;
      (** [(path, error)] for instances that failed to parse *)
}

(** Aggregates over a report, HyperBench-table style. *)
type summary = {
  total : int;
  exact_count : int;
  timeouts : int;
  skipped_count : int;
  coverage : int array;
      (** [coverage.(k - 1)], [k = 1..5]: instances of width exactly
          [k]; the ghw <= 5 histogram of the HyperBench study *)
  gt5 : int;  (** instances of width > 5 *)
  winners : (string * int) list;  (** wins per roster member *)
}

(** The default roster: the registered ghw solvers a corpus of
    hypergraphs is meaningfully compared on —
    [["min-fill-ghw"; "bb-ghw"; "astar-ghw"]]. *)
val default_roster : string list

(** [load entries] parses every manifest entry via
    {!Corpus.load_file}: [(loaded, skipped)].  Parse failures do not
    abort the sweep; they are returned as [(path, message)] and
    counted under [corpus.skipped]. *)
val load :
  Manifest.entry list ->
  (Manifest.entry * Hd_hypergraph.Hypergraph.t) list * (string * string) list

(** [sweep entries] is {!load} then {!sweep_loaded}. *)
val sweep :
  ?jobs:int ->
  ?roster:string list ->
  ?budget:Hd_engine.Budget.spec ->
  ?seed:int ->
  Manifest.entry list ->
  report

(** [sweep_loaded instances] sweeps already-loaded instances
    [(collection, name, hypergraph)].  [jobs] (default 1) instances
    run at once: the caller plus [jobs - 1] worker domains, and at
    [jobs <= 1] every instance runs inline in input order;
    [roster] defaults to {!default_roster} (unknown names raise
    [Invalid_argument] before any work runs); [budget] (default 5 s,
    no state cap) is the per-instance spec; [seed] (default 1) seeds
    every solver run identically. *)
val sweep_loaded :
  ?jobs:int ->
  ?roster:string list ->
  ?budget:Hd_engine.Budget.spec ->
  ?seed:int ->
  ?skipped:(string * string) list ->
  (string * string * Hd_hypergraph.Hypergraph.t) list ->
  report

val summarise : report -> summary

(** [to_json report] is the [corpus] section recorded into
    [BENCH_report.json] ({e docs/BENCHMARKING.md} documents every
    field). *)
val to_json : report -> Hd_obs.Obs.Json.t

(** [print report] writes the per-instance table and the summary
    (coverage histogram, winner counts, timeouts) to stdout. *)
val print : report -> unit
