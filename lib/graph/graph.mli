(** Simple undirected graphs on vertices [0 .. n - 1].

    This is the "regular graph" of the paper: no self loops, no parallel
    edges.  The structure is mutable during construction ({!add_edge}) and
    treated as immutable afterwards; algorithms that eliminate or contract
    vertices work on {!Elim_graph} or on private copies. *)

type t

(** [create n] is the edgeless graph on [n] vertices. *)
val create : int -> t

(** [n g] is the number of vertices of [g]. *)
val n : t -> int

(** [m g] is the number of edges of [g]. *)
val m : t -> int

(** [add_edge g u v] inserts the undirected edge [{u, v}].  Inserting an
    existing edge or a self loop is a no-op. *)
val add_edge : t -> int -> int -> unit

val mem_edge : t -> int -> int -> bool
val degree : t -> int -> int

(** [neighbors g v] lists the neighbours of [v] in increasing order. *)
val neighbors : t -> int -> int list

(** [adjacency g v] is the adjacency row of [v] as a bitset.  The result
    is the internal row: callers must not mutate it. *)
val adjacency : t -> int -> Bitset.t

(** [edges g] lists all edges [(u, v)] with [u < v]. *)
val edges : t -> (int * int) list

val of_edges : int -> (int * int) list -> t
val copy : t -> t

(** [complete n] is the clique [K_n]. *)
val complete : int -> t

(** [cycle n] is the cycle [C_n] (requires [n >= 3]). *)
val cycle : int -> t

(** [path n] is the path on [n] vertices. *)
val path : int -> t

(** [grid w h] is the [w * h] grid graph; vertex [(x, y)] has index
    [y * w + x]. *)
val grid : int -> int -> t

(** [is_clique g vs] holds when the vertices of [vs] are pairwise
    adjacent in [g]. *)
val is_clique : t -> Bitset.t -> bool

(** [max_degree g] is the largest vertex degree ([0] for the empty
    graph). *)
val max_degree : t -> int

(** [min_degree g] is the smallest vertex degree.
    @raise Invalid_argument on the graph with no vertices. *)
val min_degree : t -> int

(** [is_connected g] holds when [g] has at most one connected component
    (the empty graph counts as connected). *)
val is_connected : t -> bool

(** [components ?within g] lists the connected components as sorted
    vertex lists; with [within], those of the subgraph induced by the
    vertices of [within]. *)
val components : ?within:Bitset.t -> t -> int list list
