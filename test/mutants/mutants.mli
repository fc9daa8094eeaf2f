(** Byte mutants of seed texts for the readers' fail-closed properties. *)

(** [gen ~grammar seeds] picks one of [seeds] and applies 1 to 3
    single-byte inserts, deletes or replaces; each new byte is drawn
    from [grammar] or from all bytes, with equal odds. *)
val gen : grammar:string -> string list -> string QCheck.Gen.t

(** [arbitrary ~grammar seeds] is {!gen} printing mutants as OCaml
    string literals. *)
val arbitrary : grammar:string -> string list -> string QCheck.arbitrary
