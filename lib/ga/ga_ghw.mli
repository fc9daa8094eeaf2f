(** GA-ghw (Section 7.1): genetic algorithm for generalized hypertree
    width upper bounds.

    Identical to GA-tw except for the fitness: the width of the
    generalized hypertree decomposition obtained by greedily set
    covering every bag of the ordering's tree decomposition
    (Figure 7.1 / 7.2), ties broken at random. *)

val run :
  ?within:Hd_engine.Budget.t ->
  Ga_engine.config ->
  Hd_hypergraph.Hypergraph.t ->
  Ga_engine.report
(** [within] is the run's budget; its incumbent, if any, receives the
    width upper bounds.  See {!Ga_engine.run}. *)

(** [decomposition ?cover h report] materialises the witness GHD;
    covering the bags exactly (the default) may improve on the greedy
    fitness the GA saw. *)
val decomposition :
  ?cover:Hd_core.Ghd.cover_strategy ->
  Hd_hypergraph.Hypergraph.t ->
  Ga_engine.report ->
  Hd_core.Ghd.t
