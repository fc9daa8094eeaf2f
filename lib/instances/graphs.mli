(** Benchmark graph families of the paper's evaluation (Tables 5.1-6.6).

    Exactly constructible families (queen, myciel, grid) are identical
    to their DIMACS counterparts; the remaining DIMACS instances are
    single fixed graphs that cannot be shipped, so seeded structural
    analogues with matching vertex/edge counts stand in (see the
    substitution table in DESIGN.md). *)

(** [queen n] is the n x n queen graph: squares adjacent when a queen
    moves between them.  Matches DIMACS queenN_N exactly. *)
val queen : int -> Hd_graph.Graph.t

(** [mycielski k] is the DIMACS myciel[k] graph: the Mycielski
    construction iterated from K2 ([k = 2]); myciel3 is the Groetzsch
    graph (11 vertices, 20 edges).  Treewidth grows while the graph
    stays triangle-free. *)
val mycielski : int -> Hd_graph.Graph.t

(** [grid n] is the n x n grid, treewidth n. *)
val grid : int -> Hd_graph.Graph.t

(** [chain ~copies g] glues [copies] copies of [g] end-to-end at single
    shared vertices (each copy's last vertex is the next copy's vertex
    0).  Treewidth and ghw equal [g]'s — widths are maxima over
    biconnected blocks — making chains the reference instances for the
    engine's decompose-by-blocks pass ("blocks2-queen5_5",
    "blocks3-grid4" in the catalogue). *)
val chain : copies:int -> Hd_graph.Graph.t -> Hd_graph.Graph.t

(** [random_gnp ~seed ~n ~p] is an Erdos-Renyi graph — the DSJC family's
    distribution. *)
val random_gnp : seed:int -> n:int -> p:float -> Hd_graph.Graph.t

(** [by_name name] resolves a Table 5.1/6.6 instance name — e.g.
    "queen5_5", "myciel4", "grid6", "DSJC125.1", "anna", "miles250",
    "le450_15a", "mulsol.i.1" — to the exact construction or its
    documented stand-in: random interval graphs for the book graphs
    (anna, david, homer, huck, jean; characters live in contiguous
    narrative stretches), games120 and the register-interference graphs
    (fpsol2, inithx, mulsol, zeroin; live ranges), random geometric
    graphs for the miles family, and unions of random cliques for le450
    and school1.  Every stand-in is tuned to roughly the original's
    edge count. *)
val by_name : string -> Hd_graph.Graph.t option

(** [names] lists every instance [by_name] accepts, with the vertex and
    edge counts of the DIMACS original it mirrors. *)
val names : (string * int * int) list
