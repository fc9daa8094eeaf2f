(** Yannakakis-style conjunctive query answering over (G)HDs.

    The pipeline (the paper's "answer" to a question, Sections 2.2-2.5):

    + extract the query's hypergraph ({!Cq.hypergraph});
    + when it is alpha-acyclic, take the GYO join tree directly (one
      node per atom, ghw 1); otherwise compute an elimination ordering
      (min-fill, BB-ghw, or the {!Hd_parallel.Portfolio} race,
      depending on [method_]), fold every bag contained in a
      neighbour's, and build a GHD with exact set-cover labels;
    + materialise one relation per node: the join of a connected atom
      set covering the node's bag, projected onto the bag
      ({!Join_tree.of_ghd}; the reported width stays lambda's);
    + semijoin-reduce the tree bottom-up (and, except in boolean mode,
      top-down), after which the tree is globally consistent;
    + join the reduced bags that hold the head, projecting each
      binding onto the head variables and deduplicating as it goes
      ({!Join_tree.project}) — or count / decide without
      materialising any answer.

    Total cost is polynomial in [||D||^w + |answers|] for a width-[w]
    plan; after the two semijoin passes every binding the answer pass
    extends reaches an answer, so its [query.radix_join_tuples] stay
    within answers × bags — asserted in the test suite. *)

type mode =
  | Answers  (** materialise the distinct answer set *)
  | Count  (** number of distinct answers, without materialising them
               when the head covers every body variable *)
  | Boolean  (** emptiness only: bottom-up semijoins, nothing more *)

type method_ =
  | Auto  (** GYO join tree when acyclic, else min-fill GHD *)
  | Min_fill  (** always decompose, min-fill ordering *)
  | Bb_ghw  (** always decompose, branch-and-bound ghw ordering *)
  | Portfolio  (** always decompose, parallel portfolio ordering *)

type stats = {
  acyclic : bool;  (** answered via the GYO join tree *)
  width : int;  (** 1 when acyclic, else the GHD width of the plan *)
  bags : int;  (** join tree nodes *)
  tuples_materialized : int;  (** total bag tuples before reduction *)
  tuples_after_reduction : int;  (** total bag tuples after semijoins *)
  semijoins : int;  (** semijoin operations performed *)
}

type result = {
  mode : mode;
  answers : string array list;
      (** decoded distinct answers ([Answers] mode only, unspecified
          order) *)
  count : int;  (** distinct answers ([Answers]/[Count]; 1/0 for
                    [Boolean]) *)
  nonempty : bool;
  stats : stats;
}

(** [run ~mode db q] answers [q] over [db] on the columnar
    {!Join_tree} passes.  [jobs] sizes the [Portfolio]
    race; [seed] and [time_limit] parameterise the decomposition search
    ([time_limit] bounds only that search, not evaluation).  [ordering]
    supplies an elimination ordering computed elsewhere — batch
    evaluation and the server's bulk submit share one decomposition
    across many isomorphic queries this way; it is ignored on the
    acyclic [Auto] path, which needs no decomposition.  [par] runs the
    columnar semijoin and join-project passes partitioned-parallel on
    the given scheduler; results are byte-identical to the sequential
    run (see {!Colexec.semijoin}).
    @raise Failure on relations missing from [db], arity mismatches,
    or a count past [max_int]. *)
val run :
  ?method_:method_ ->
  ?jobs:int ->
  ?seed:int ->
  ?time_limit:float ->
  ?ordering:int array ->
  ?par:Hd_engine.Scheduler.t ->
  mode:mode ->
  Db.t ->
  Cq.t ->
  result

(** [ordering_for ~method_ ~jobs ~seed ~time_limit h] is the
    elimination ordering [run] would search for on the GHD path —
    exposed so batch drivers can compute it once per structure and
    replay it via [?ordering]. *)
val ordering_for :
  method_:method_ ->
  jobs:int ->
  seed:int ->
  time_limit:float ->
  Hd_hypergraph.Hypergraph.t ->
  int array
