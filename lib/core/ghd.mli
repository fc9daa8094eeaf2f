(** Generalized hypertree decompositions (Definition 13).

    A GHD is a tree decomposition together with a hyperedge label
    lambda(p) on every node such that chi(p) is contained in the union
    of the vertices of lambda(p).  Its width is the largest |lambda(p)|;
    the minimum over all GHDs of a hypergraph is the generalized
    hypertree width, ghw.

    By the paper's Chapter 3 result (Theorems 2 and 3), ghw is reached
    by bucket elimination along some elimination ordering when every
    bag's set cover is solved exactly — {!of_ordering} with
    [`Exact] realises exactly that construction. *)

type t = private {
  td : Tree_decomposition.t;
  lambda : int array array;  (** hyperedge indices labelling each node *)
}

type cover_strategy =
  [ `Greedy of Random.State.t option  (** Figure 7.2, random tie-breaks *)
  | `Exact  (** branch-and-bound set cover — optimal lambda labels *) ]

(** [make h ~td ~lambda] packages a GHD.
    @raise Invalid_argument when [lambda] and [td] disagree in length. *)
val make : td:Tree_decomposition.t -> lambda:int array array -> t

(** [width ghd] is [max_p |lambda(p)|]. *)
val width : t -> int

(** [valid h ghd] checks all three GHD conditions against [h]. *)
val valid : Hd_hypergraph.Hypergraph.t -> t -> bool

(** [of_ordering h sigma ~cover] runs bucket elimination along [sigma]
    and covers every bag with hyperedges of [h] according to [cover]
    (Section 2.5.2). *)
val of_ordering :
  Hd_hypergraph.Hypergraph.t -> Ordering.t -> cover:cover_strategy -> t

(** [of_tree_decomposition h td ~cover] covers the bags of an arbitrary
    tree decomposition of [h], the generic TD-to-GHD conversion of
    Section 2.5.2. *)
val of_tree_decomposition :
  Hd_hypergraph.Hypergraph.t ->
  Tree_decomposition.t ->
  cover:cover_strategy ->
  t

val pp : Hd_hypergraph.Hypergraph.t -> Format.formatter -> t -> unit
