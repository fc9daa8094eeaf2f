(** Destructive edge contraction, the primitive behind the minor-based
    treewidth lower bounds (degeneracy, minor-min-width, minor-gamma_R,
    tw-ksc-width).

    A contract graph is consumed by the bound computation: there is no
    undo.  It is a reusable workspace instead: {!create} sizes one to an
    instance, and {!load_graph} or {!load_elim_graph} overwrite it with a
    fresh copy before each bound evaluation, without allocating.  Every
    update keeps each vertex's degree, so degree queries are O(1). *)

type t

(** [create n] is an empty workspace for graphs on [n] vertices. *)
val create : int -> t

(** [load_graph t g] overwrites [t] with [g]; every vertex is live.
    @raise Invalid_argument when [Graph.n g] differs from the size [t]
    was created with. *)
val load_graph : t -> Graph.t -> unit

(** [load_elim_graph t eg] overwrites [t] with the live part of the
    elimination graph [eg].
    @raise Invalid_argument when [Elim_graph.capacity eg] differs from
    the size [t] was created with. *)
val load_elim_graph : t -> Elim_graph.t -> unit

(** [of_graph g] is a fresh workspace loaded with [g]. *)
val of_graph : Graph.t -> t

val n_alive : t -> int
val degree : t -> int -> int
val mem_edge : t -> int -> int -> bool

(** [min_degree_vertex t ~rng] is a live vertex of minimum degree; ties
    are broken uniformly at random using [rng], as the paper's
    heuristics prescribe.  The live vertices are scanned in ascending
    order and [rng] is drawn only on a tie.
    @raise Not_found when no vertex is live. *)
val min_degree_vertex : t -> rng:Random.State.t -> int

(** [min_degree_neighbor t v ~rng] is a neighbour of [v] of minimum
    degree, ties broken at random as in {!min_degree_vertex}.
    @raise Not_found when [v] has no neighbour. *)
val min_degree_neighbor : t -> int -> rng:Random.State.t -> int

(** [gamma_vertex t ~rng] is the vertex minor-gamma_R records: sort the
    live vertices by degree, ties by one [Random.State.bits rng] key per
    vertex (drawn in ascending vertex order), then by id; the result is
    the first vertex not adjacent to all of its predecessors.  [None]
    when the live graph is a clique.  Every key is drawn, but the order
    is taken one minimum at a time, only as far as the result. *)
val gamma_vertex : t -> rng:Random.State.t -> int option

(** [contract t u v] contracts the edge [{u, v}]: [v]'s neighbours are
    merged into [u] and [v] disappears. *)
val contract : t -> int -> int -> unit

(** [remove t v] deletes the live vertex [v] and its incident edges. *)
val remove : t -> int -> unit

(** [clear t] deletes every live vertex. *)
val clear : t -> unit
