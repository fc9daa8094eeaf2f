(** Hypergraphs on vertices [0 .. n - 1].

    A hypergraph is a set of hyperedges, each a non-empty vertex set
    (Definition 2 of the paper).  Vertices may carry names (CSP variable
    names); hyperedges may carry names (constraint names).  The structure
    is immutable after construction. *)

type t

(** [create ~n edges] builds a hypergraph on [n] vertices.  Each
    hyperedge is deduplicated and sorted; empty hyperedges are rejected.
    @raise Invalid_argument on an empty hyperedge or an out-of-range
    vertex. *)
val create : ?vertex_names:string array -> ?edge_names:string array -> n:int -> int list list -> t

val n_vertices : t -> int
val n_edges : t -> int

(** [edge h i] is the sorted vertex array of hyperedge [i] (do not
    mutate). *)
val edge : t -> int -> int array

val edge_list : t -> int -> int list

(** [edges h] lists all hyperedges as sorted vertex lists, in index
    order. *)
val edges : t -> int list list

(** [edge_bits h i] is hyperedge [i] as a bitset of capacity
    [n_vertices h], built once by {!create} (do not mutate). *)
val edge_bits : t -> int -> Hd_graph.Bitset.t

(** [edge_set h i] is hyperedge [i] as a bitset (a fresh copy). *)
val edge_set : t -> int -> Hd_graph.Bitset.t

(** [incident h v] lists the indices of hyperedges containing [v]. *)
val incident : t -> int -> int list

(** [vertex_name h v] is the name of [v] ("v<n>" when unnamed). *)
val vertex_name : t -> int -> string

val edge_name : t -> int -> string

(** [max_edge_size h] is the largest hyperedge cardinality, i.e. the
    parameter [k] of the k-set-cover lower bound. *)
val max_edge_size : t -> int

(** [primal h] is the Gaifman (primal) graph of [h] (Definition 3): two
    vertices are adjacent iff they share a hyperedge. *)
val primal : t -> Hd_graph.Graph.t

(** [dual h] is the dual graph (Definition 4): one vertex per hyperedge,
    adjacent iff the hyperedges intersect. *)
val dual : t -> Hd_graph.Graph.t

(** [of_graph g] views a regular graph as a hypergraph with one binary
    hyperedge per graph edge. *)
val of_graph : Hd_graph.Graph.t -> t

(** [remove_subsumed h] drops every hyperedge contained in another
    hyperedge (keeping one copy of duplicates).  The vertex set, the
    primal graph and the generalized hypertree width are unchanged — a
    subsumed edge is never needed in a cover and its condition-1
    coverage is implied — so the searches run on the reduced instance
    for free.  Names of surviving edges are preserved. *)
val remove_subsumed : t -> t

(** [covers_vertex h v] holds when some hyperedge contains [v].  Isolated
    vertices cannot appear in any generalized hypertree decomposition's
    lambda-labels, so most algorithms require every vertex covered. *)
val covers_vertex : t -> int -> bool

(** [all_vertices_covered h] holds when every vertex lies in at least one
    hyperedge. *)
val all_vertices_covered : t -> bool

val pp : Format.formatter -> t -> unit
