(** Join trees of materialised relations and the semijoin programs over
    them — the one mechanism behind acyclic CSP solving (Figure 2.4),
    solving from TDs and GHDs (Section 2.4), adaptive consistency and
    Yannakakis query answering (Sections 2.2–2.5).

    A join tree carries one {!Qrelation.t} per node; node [i]'s
    relation scope is its bag.  All passes run on the columnar kernel
    ({!Colexec}): semijoins shrink per-node {e selection vectors} over
    the unchanged bags, counting aggregates child weights through
    {!Colexec.Keysum}, and enumeration walks {!Colexec.Index}es.

    Counters: [query.reduce_semijoins] (semijoin passes),
    [query.bag_products] (bags {!of_ghd} built through a product),
    [query.enum_rows] and [query.enum_dead_ends] (enumeration work —
    after full reduction the enumeration is backtrack-free, so
    [query.enum_dead_ends] stays 0); the kernel's own
    [query.selvec_*] / [query.radix_*] counters attribute the per-row
    work. *)

type t = {
  rels : Qrelation.t array;
  parent : int array;  (** [-1] for roots; a forest is allowed *)
}

(** [is_join_tree t] checks the connectedness condition (Definition 8):
    the nodes whose scopes contain a variable form a connected
    subtree. *)
val is_join_tree : t -> bool

(** [bag ?par rels ~scope] is the natural join of [rels] projected onto
    [scope] ({!Colexec.join_project}); the empty list gives the
    one-row nullary relation.
    @raise Not_found when [scope] mentions an attribute absent from
    every relation. *)
val bag : ?par:Hd_engine.Scheduler.t -> Qrelation.t list -> scope:int array -> Qrelation.t

(** [of_ghd ?par h ghd atoms] materialises one relation per node [p]
    of [ghd], a GHD of [h]; [atoms.(e)] is the relation of hyperedge
    [e], its scope the edge's variables.  Node [p] gets the {!bag} onto
    chi(p) of an atom set S(p): lambda(p) plus every atom whose
    variables lie inside chi(p), joined up by shortest atom paths
    (breadth-first over the dual graph of [h]) where those leave it
    disconnected, less the atoms reaching outside chi(p), largest
    first, that neither connectedness nor a cover of chi(p) of at most
    |lambda(p)| atoms needs.  That cover starts as lambda(p); an atom
    leaves it only for a remaining atom holding all of its
    chi-variables.  S(p) is joined smallest relation first, in
    connected order.  A bag whose S(p) no atom path connects is a cross
    product and counts in [query.bag_products].

    Every atom is joined at every node containing its variables, which
    implies completion (Lemma 2): [ghd] need not be complete.  Each bag
    holds the chi-projection of every answer and lies within the
    chi-projection of its cover's join, so it has at most ‖D‖^width
    rows. *)
val of_ghd :
  ?par:Hd_engine.Scheduler.t ->
  Hd_hypergraph.Hypergraph.t ->
  Hd_core.Ghd.t ->
  Qrelation.t array ->
  t

(** {1 Semijoin programs over selection vectors} *)

(** The live selection of every node; the bags themselves are never
    rewritten. *)
type state

(** [start t] selects every row of every node. *)
val start : t -> state

(** [reduce ?par ?full st] runs the bottom-up semijoin pass and, when
    [full] (default [true]), the top-down pass, after which every
    selected row takes part in at least one full solution.  [false]
    as soon as some node's selection empties (no solution). *)
val reduce : ?par:Hd_engine.Scheduler.t -> ?full:bool -> state -> bool

(** [semijoins st] is the number of semijoins performed so far. *)
val semijoins : state -> int

(** [surviving st] is the total number of selected rows. *)
val surviving : state -> int

(** [count st] is the number of distinct full assignments the selected
    rows admit: per-node weights accumulated children-first, one
    {!Colexec.Keysum} probe per row and child.  Correct on any
    selection; {!reduce} only makes it cheaper. *)
val count : state -> int

(** [iter st ~n_vars f] calls [f env] for every full assignment of the
    selected rows in depth-first pre-order; [env.(v)] is variable
    [v]'s value, [min_int] for variables in no scope.  [env] is reused
    between calls.  Backtrack-free after {!reduce}. *)
val iter : state -> n_vars:int -> (int array -> unit) -> unit

(** {1 Acyclic solving} *)

(** [solve ?par t ~n_vars] is algorithm Acyclic Solving: the bottom-up
    pass, then a top-down read-off of one solution (variables in no
    scope stay [min_int]); [None] when there is none.  Assumes the
    connectedness condition. *)
val solve : ?par:Hd_engine.Scheduler.t -> t -> n_vars:int -> int array option

(** [count_solutions ?par t] counts the full assignments to the
    variables in [t]'s scopes by sum-product over the tree.  Assumes
    the connectedness condition. *)
val count_solutions : ?par:Hd_engine.Scheduler.t -> t -> int
