(** The exact searches and ordering heuristics as engine solver
    entries.

    {!all} lists, in order: [astar-tw], [bb-tw], [bb-tw-nopr2],
    [bb-tw-noreduce], [preprocess-tw], [min-fill], [min-degree], [mcs]
    (treewidth); [astar-ghw], [bb-ghw], [bb-ghw-greedy],
    [min-fill-ghw] (generalized hypertree width); [fhw-bb],
    [fhw-min-fill] (fractional hypertree width, as ceilings);
    [hw-det-k] (hypertree width).  This module registers nothing:
    [Hd_parallel.Registry.ensure] puts these entries into the table,
    with the GA family of [Hd_ga.Solvers] and the parallel variants.

    The exact searches are the {!Ordering_search} instances, wrapped
    directly.  Without a [seed], each entry uses its own:

    - [astar-tw]: [Tw.astar], seed [0x7ea];
    - [bb-tw], [bb-tw-nopr2], [bb-tw-noreduce]: [Tw.bb], seed [0xb0b];
    - [astar-ghw]: [Ghw.astar], seed [0xa5a];
    - [bb-ghw]: [Ghw.bb], and [bb-ghw-greedy]: [Ghw_greedy.bb], seed
      [0x6b6];
    - [fhw-bb]: [Fhw.bb], seed [0xfa3].  The entry reports ceilings of
      the rational bounds, which is sound under the engine's
      max-combining of blocks; the exact rational is recovered from
      the witness ordering with {!Hd_core.Eval.fhw_width_q}. *)

val all : Hd_engine.Solver.t list

(** [search ~kind ~input ~result ~name ~doc ~default_seed solve] is the
    entry [name] running [result (solve ~within ~seed (input p))], with
    the caller's seed or [default_seed]. *)
val search :
  kind:Hd_engine.Solver.kind -> input:(Hd_engine.Solver.problem -> 'i) ->
  result:('r -> Hd_engine.Solver.result) -> name:string -> doc:string ->
  default_seed:int -> (within:Hd_engine.Budget.t -> seed:int -> 'i -> 'r) ->
  Hd_engine.Solver.t

(** [of_int r] is the search core's int result as the registry's: the
    one conversion between the two types. *)
val of_int : int Ordering_search.result -> Hd_engine.Solver.result
