(** Tree decompositions of hypergraphs (Definition 11).

    A tree decomposition is a rooted tree whose nodes carry vertex bags
    (the labelling function chi) such that (1) every hyperedge is
    contained in some bag and (2) the nodes containing any fixed vertex
    form a connected subtree.  Its width is the largest bag size minus
    one; the treewidth of a (hyper)graph is the minimum width over its
    tree decompositions.

    By Lemma 1 a tree of bags decomposes a hypergraph iff it decomposes
    the hypergraph's primal graph, so construction algorithms here
    operate on graphs while validation accepts either view. *)

type t = private {
  bags : Hd_graph.Bitset.t array;  (** [bags.(i)] is chi of node [i] *)
  parent : int array;
      (** [parent.(i)] is node [i]'s parent, [-1] for the root *)
}

(** [make ~bags ~parent] checks tree-shapedness (single root, acyclic
    parent pointers) and builds the decomposition.
    @raise Invalid_argument when [parent] does not describe a rooted
    tree or lengths differ. *)
val make : bags:Hd_graph.Bitset.t array -> parent:int array -> t

val n_nodes : t -> int
val root : t -> int
val children : t -> int -> int list
val bag : t -> int -> Hd_graph.Bitset.t

(** [width td] is [max_i |bags.(i)| - 1]. *)
val width : t -> int

(** [edges td] lists the tree edges [(child, parent)]. *)
val edges : t -> (int * int) list

(** [valid_for_graph g td] checks both decomposition conditions against
    the regular graph [g] (every edge inside a bag, connectedness). *)
val valid_for_graph : Hd_graph.Graph.t -> t -> bool

(** [valid_for_hypergraph h td] checks both conditions against the
    hypergraph [h]. *)
val valid_for_hypergraph : Hd_hypergraph.Hypergraph.t -> t -> bool

(** [of_ordering g sigma] runs vertex elimination (Figure 2.12,
    equivalently bucket elimination, Figure 2.10) on graph [g] along
    [sigma], eliminating [sigma.(n-1)] first.  Node [i] of the result is
    the bucket of vertex [sigma.(i)]; the root is [sigma.(0)]'s bucket.
    The width of the result is the width of [g] under [sigma]. *)
val of_ordering : Hd_graph.Graph.t -> Ordering.t -> t

(** [of_ordering_hypergraph h sigma] is [of_ordering] on [h]'s primal
    graph. *)
val of_ordering_hypergraph : Hd_hypergraph.Hypergraph.t -> Ordering.t -> t

(** [simplify td] contracts away every node whose bag is a subset of a
    neighbour's bag — the standard "small" normal form.  Validity and
    width are preserved (width can only shrink in the degenerate case
    of a single all-subsumed chain); bucket-elimination decompositions
    typically shrink a lot.  Idempotent. *)
val simplify : t -> t

val pp : Format.formatter -> t -> unit
