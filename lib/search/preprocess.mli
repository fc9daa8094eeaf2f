(** Treewidth-safe graph preprocessing (Section 4.4.3, after
    Bodlaender et al.).

    The reduction rules shrink a graph without lowering its treewidth
    below a maintained floor [low]:

    - {e islet / twig / series}: vertices of degree 0, 1, 2 are
      simplicial or almost simplicial and reduce with
      [low >= degree];
    - {e simplicial}: a vertex whose neighbourhood is a clique reduces
      with [low >= degree];
    - {e strongly almost simplicial}: an almost simplicial vertex of
      degree at most [low] reduces.

    After exhaustion, [tw(g) = max (low, tw(reduced))], so exact
    searches and heuristics can run on the (often much smaller) kernel.
    The searches already apply these rules dynamically; this module
    exposes them as a standalone preprocessor, plus a convenience
    wrapper around A*-tw ({!Ordering_search.Tw.astar}). *)

type result = {
  reduced : Hd_graph.Graph.t;
      (** the kernel; eliminated vertices remain as isolated vertices
          to keep the numbering stable *)
  eliminated : int list;
      (** vertices removed, in elimination order (first removed
          first) *)
  low : int;  (** the treewidth floor the eliminations force *)
}

(** [reduce ?lb g] applies the rules to exhaustion.  [lb] seeds the
    floor (e.g. with a minor-min-width bound), which enables more
    strongly-almost-simplicial reductions. *)
val reduce : ?lb:int -> Hd_graph.Graph.t -> result

(** [treewidth_with_preprocessing ?within ?seed g] reduces, then runs
    A*-tw on the kernel under [within] and recombines: the result
    equals [tw g], with a witness ordering over the original vertices.
    Without [seed] the lower bound draws from seed 1 and A*-tw from
    [0x7ea], the [astar-tw] registry entry's default. *)
val treewidth_with_preprocessing :
  ?within:Hd_engine.Budget.t ->
  ?seed:int ->
  Hd_graph.Graph.t ->
  int Ordering_search.result
