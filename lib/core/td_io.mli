(** Tree decompositions in the PACE challenge .td interchange format.

    The format the treewidth community standardised:

    {[ c optional comments
       s td <num_bags> <max_bag_size> <num_vertices>
       b <bag_id> <v1> <v2> ...      (bag ids and vertices 1-based)
       <bag_id> <bag_id>             (tree edges)               ]}

    Writing and parsing this format lets decompositions produced here be
    checked by external validators and vice versa. *)

(** [to_string td] renders [td]; [n_vertices] is the vertex count of the
    underlying (hyper)graph recorded in the header. *)
val to_string : n_vertices:int -> Tree_decomposition.t -> string

(** [parse_string text] parses a .td file into a decomposition (rooted
    at the first bag).
    @raise Failure on malformed input, naming the offending line, or
    the bag a disconnected edge set leaves out. *)
val parse_string : string -> Tree_decomposition.t

(** [read ~ghd text] is the one reader behind {!parse_string}
    ([~ghd:false]) and [Ghd_io.parse_string] ([~ghd:true]): the
    solution line comes first ([s td <bags> <width> <vertices>], or
    [s ghd ...] with a trailing hyperedge count), then [b] lines, tree
    edges and — for [.ghd] only — [l] lines, returned in file order as
    (bag, hyperedges), both 0-based and range-checked.  The tree edges
    must form a tree, rooted at the first bag.
    @raise Failure as {!parse_string} does. *)
val read :
  ghd:bool -> string -> Tree_decomposition.t * (int * int list) list

val write_file : string -> n_vertices:int -> Tree_decomposition.t -> unit
val parse_file : string -> Tree_decomposition.t
