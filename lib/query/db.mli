(** Relational instances: named base tables of interned constants.

    A database maps relation names to {!Qrelation.t} base tables whose
    scope is the column numbering [0 .. arity - 1].  Facts are loaded
    from CSV ([,]-separated) or TSV (tab-separated) files, one file per
    relation (the relation is named after the file), one tuple per
    line; blank lines and [#] comment lines are skipped.  All constants
    share one {!Intern.t}.  Fields are interned straight into columns,
    deduplicated by {!Colexec.Distinct}: a base table holds its
    distinct tuples in first-occurrence order. *)

type t

val create : unit -> t

val interner : t -> Intern.t

(** [add db ~name rows] adds facts (string constants) to relation
    [name], creating it or appending the facts it does not hold yet.
    @raise Failure when [rows] disagree in arity with each other or
    with the existing relation. *)
val add : t -> name:string -> string array list -> unit

(** [load_file db ?name path] loads [path] as relation [name] (default:
    the file's basename without extension).  The separator is a tab for
    [.tsv] files and a comma otherwise.
    @raise Failure with file and line information on ragged rows;
    @raise Sys_error on unreadable files. *)
val load_file : t -> ?name:string -> string -> unit

(** [load_dir db dir] loads every [.csv] and [.tsv] file of [dir]. *)
val load_dir : t -> string -> unit

val find : t -> string -> Qrelation.t option

val relation_names : t -> string list

(** [relation_for_atom db ~var_id atom] is the relation of [atom]'s
    matches: constant arguments are selected on, repeated variables
    are filtered for equality, and the result is projected onto
    [atom]'s distinct variables with scope [var_id v] per variable
    (first-occurrence order — {!Cq.atom_vars}).  For a ground atom the
    scope is empty and the result is non-empty iff the fact holds.
    Rows keep the base table's order.  An atom over distinct variables
    is a view: it shares the base table's columns and costs O(arity);
    any other atom selects its rows into fresh columns in one scan.
    @raise Failure on an unknown relation or an arity mismatch. *)
val relation_for_atom : t -> var_id:(string -> int) -> Cq.atom -> Qrelation.t

(** [decode db row] maps interned ids back to strings. *)
val decode : t -> int array -> string array
