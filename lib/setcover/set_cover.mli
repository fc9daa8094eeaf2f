(** Set covering of decomposition bags by hyperedges.

    Bucket elimination for generalized hypertree decompositions
    (Section 2.5.2) turns every bag chi(p) into a set cover instance:
    pick the fewest hyperedges whose union contains the bag.  The paper
    uses the classical greedy heuristic (Figure 7.2) inside the genetic
    algorithms and an exact solver (an IP solver in the thesis; a
    branch-and-bound here) inside BB-ghw / A*-ghw, where exactness makes
    the search an exact method for generalized hypertree width. *)

type problem = {
  universe : Hd_graph.Bitset.t;
      (** the vertices to cover, with capacity
          [Hypergraph.n_vertices hypergraph] *)
  hypergraph : Hd_hypergraph.Hypergraph.t;
      (** the hyperedges available for covering *)
}

(** [greedy ?rng problem] covers the universe by repeatedly choosing a
    hyperedge containing the most still-uncovered vertices, ties broken
    uniformly at random when [rng] is given (the first candidate
    otherwise).  Gains are bitset intersections with each hyperedge's
    {!Hd_hypergraph.Hypergraph.edge_bits}.
    Returns the chosen hyperedge indices.
    @raise Invalid_argument when some universe vertex lies in no
    hyperedge. *)
val greedy : ?rng:Random.State.t -> problem -> int list

(** [exact problem] is an optimal cover, found by branch and bound
    seeded with the greedy solution: the greedy cover in choice order
    when nothing smaller exists, else the first smallest cover found,
    last chosen hyperedge first.  Adds its branch nodes to the
    [setcover.exact_nodes] counter.
    @raise Invalid_argument when some universe vertex lies in no
    hyperedge. *)
val exact : problem -> int list

(** [exact_size problem] is [List.length (exact problem)].  Callers
    that price recurring bags memoise it by bag content
    ([Hd_core.Eval.exact_memoized]). *)
val exact_size : problem -> int

(** [greedy_size ?rng problem] is [List.length (greedy problem)]. *)
val greedy_size : ?rng:Random.State.t -> problem -> int

(** [cover_size_lower_bound ~universe_size ~max_set_size] is the trivial
    k-set-cover lower bound [ceil(universe_size / max_set_size)]: no set
    covers more than [max_set_size] elements. *)
val cover_size_lower_bound : universe_size:int -> max_set_size:int -> int

(** [is_cover problem chosen] checks that the union of the chosen
    hyperedges contains the universe. *)
val is_cover : problem -> int list -> bool
