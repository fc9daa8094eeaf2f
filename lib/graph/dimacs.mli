(** Reading and writing graphs in DIMACS graph-coloring format.

    The format is the one of the Second DIMACS challenge benchmarks used
    in the paper's evaluation: a [p edge n m] problem line followed by
    [e u v] edge lines with 1-based vertex numbers.  Comment lines start
    with [c]. *)

(** [parse_string s] parses DIMACS text.
    @raise Failure ["Dimacs: line N: ..."] on malformed input: a bad
    line, a non-integer count or endpoint, a negative vertex count, an
    endpoint outside [1..n] (also on edges before the problem line) or
    a second problem line; and when the problem line is missing. *)
val parse_string : string -> Graph.t

(** [parse_file path] parses the DIMACS file at [path]. *)
val parse_file : string -> Graph.t

(** [to_string g] renders [g] in DIMACS format. *)
val to_string : Graph.t -> string
