(** (Generalized) hypertree decompositions in a .td-style interchange
    format.

    The PACE .td format extended with one [l] line per node listing its
    lambda label — the hyperedge indices covering the bag:

    {[ c optional comments
       s ghd <num_bags> <width> <num_vertices> <num_hyperedges>
       b <bag_id> <v1> <v2> ...      (bag ids and vertices 1-based)
       l <bag_id> <e1> <e2> ...      (hyperedge indices, 1-based)
       <bag_id> <bag_id>             (tree edges)                 ]}

    [hd_decompose -m hw-det-k -o out.ghd] writes it and [hd_validate] checks
    it (GHD conditions plus the descendant/special condition). *)

(** [to_string ~n_vertices ~n_edges ghd] renders [ghd]; the counts
    record the underlying hypergraph's dimensions in the header. *)
val to_string : n_vertices:int -> n_edges:int -> Ghd.t -> string

(** [parse_string text] parses a .ghd file (rooted at the first bag)
    through [Td_io.read]; a bag with no [l] line gets an empty label.
    @raise Failure on malformed input, naming the offending line, or
    the bag a disconnected edge set leaves out. *)
val parse_string : string -> Ghd.t

val write_file : string -> n_vertices:int -> n_edges:int -> Ghd.t -> unit
val parse_file : string -> Ghd.t
