module Distinct = Colexec.Distinct

type t = { intern : Intern.t; rels : (string, Qrelation.t) Hashtbl.t }

let create () = { intern = Intern.create (); rels = Hashtbl.create 16 }

let interner db = db.intern

let find db name = Hashtbl.find_opt db.rels name

let relation_names db =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) db.rels [])

let base_scope k = Array.init k Fun.id

let expects name k =
  Printf.sprintf "Db.add: relation %S expects arity %d tuples" name k

(* an open load into relation [name]: a dedupe table seeded with the
   relation's rows so far, so later rows append in first-occurrence
   order, and a reused row buffer that fields are interned into *)
type load = { table : Distinct.t; row : int array; proj : int array }

let open_load db ~name ~arity =
  let table = Distinct.create ~dedup:true ~capacity:64 arity in
  let row = Array.make arity 0 and proj = base_scope arity in
  Option.iter
    (fun r ->
      if Qrelation.arity r <> arity then failwith (expects name (Qrelation.arity r));
      for i = 0 to Qrelation.cardinality r - 1 do
        Array.iteri (fun j col -> row.(j) <- col.(i)) (Qrelation.columns r);
        Distinct.add table row proj
      done)
    (find db name);
  { table; row; proj }

let close_load db ~name l =
  Hashtbl.replace db.rels name (Distinct.to_relation l.table ~scope:l.proj)

let add db ~name rows =
  match rows with
  | [] -> ()
  | first :: _ ->
      let existing = find db name in
      let arity =
        match existing with Some r -> Qrelation.arity r | None -> Array.length first
      in
      let l = open_load db ~name ~arity in
      List.iter
        (fun fields ->
          if Array.length fields <> arity then
            failwith
              (if Option.is_some existing then expects name arity
               else Printf.sprintf "Db.add: relation %S: ragged tuple arities" name);
          Array.iteri (fun j s -> l.row.(j) <- Intern.intern db.intern s) fields;
          Distinct.add l.table l.row l.proj)
        rows;
      close_load db ~name l

let name_of_path path =
  let base = Filename.basename path in
  try Filename.chop_extension base with Invalid_argument _ -> base

(* the bytes [String.trim] drops *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* the file is read whole and each line split in place: a field is
   trimmed and interned straight into the reused row buffer, so no line,
   field list or row array outlives its line *)
let load_file db ?name path =
  Hd_obs.Obs.with_span "db.load" @@ fun () ->
  let name = match name with Some n -> n | None -> name_of_path path in
  let sep =
    if Filename.check_suffix (String.lowercase_ascii path) ".tsv" then '\t'
    else ','
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length text in
  let load = ref None in
  let pos = ref 0 and lineno = ref 0 in
  while !pos < len do
    let eol =
      match String.index_from_opt text !pos '\n' with Some e -> e | None -> len
    in
    let stop = if eol > !pos && text.[eol - 1] = '\r' then eol - 1 else eol in
    incr lineno;
    let lead = ref !pos in
    while !lead < stop && is_space text.[!lead] do
      incr lead
    done;
    if !lead < stop && text.[!lead] <> '#' then begin
      let fields = ref 1 in
      for i = !pos to stop - 1 do
        if text.[i] = sep then incr fields
      done;
      let l =
        match !load with
        | Some l -> l
        | None ->
            let l = open_load db ~name ~arity:!fields in
            load := Some l;
            l
      in
      let arity = Array.length l.row in
      if !fields <> arity then
        failwith
          (Printf.sprintf "Db: %s, line %d: expected %d fields, got %d" path
             !lineno arity !fields);
      let field = ref 0 and start = ref !pos in
      for i = !pos to stop do
        if i = stop || text.[i] = sep then begin
          let a = ref !start and b = ref i in
          while !a < !b && is_space text.[!a] do
            incr a
          done;
          while !b > !a && is_space text.[!b - 1] do
            decr b
          done;
          l.row.(!field) <- Intern.intern db.intern (String.sub text !a (!b - !a));
          incr field;
          start := i + 1
        end
      done;
      Distinct.add l.table l.row l.proj
    end;
    pos := eol + 1
  done;
  Option.iter (close_load db ~name) !load

let load_dir db dir =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  Array.iter
    (fun entry ->
      let lower = String.lowercase_ascii entry in
      if
        Filename.check_suffix lower ".csv"
        || Filename.check_suffix lower ".tsv"
      then load_file db (Filename.concat dir entry))
    entries

(* An atom over distinct variables is its base relation's columns
   under new attribute ids: a view sharing the arrays.  A constant or a
   repeated variable selects rows into fresh columns, with no dedupe:
   the base rows are distinct, and every position dropped is a
   constant or a copy of a kept one.  Either way rows keep the base
   relation's order. *)
let relation_for_atom db ~var_id (atom : Cq.atom) =
  let base =
    match find db atom.Cq.pred with
    | Some r -> r
    | None ->
        failwith
          (Printf.sprintf "Db: unknown relation %S in query" atom.Cq.pred)
  in
  let args = atom.Cq.args in
  let k = Array.length args in
  if Qrelation.arity base <> k then
    failwith
      (Printf.sprintf "Db: relation %S has arity %d, query atom has arity %d"
         atom.Cq.pred (Qrelation.arity base) k);
  let vars = Cq.atom_vars atom in
  let first_pos v =
    let rec go j = if args.(j) = Cq.Var v then j else go (j + 1) in
    go 0
  in
  let scope = Array.map var_id vars in
  let kept = Array.map (fun v -> Qrelation.col base (first_pos v)) vars in
  let n = Qrelation.cardinality base in
  if Array.length vars = k then Qrelation.of_columns_unchecked ~scope kept ~n
  else
    (* a row matches when each position holds its constant's id ([-1]
       for a constant the data lacks) or its variable's first value *)
    let cols = Qrelation.columns base in
    let checks =
      Array.mapi
        (fun j term ->
          match term with
          | Cq.Const c ->
              let v = Option.value ~default:(-1) (Intern.find db.intern c) in
              fun i -> cols.(j).(i) = v
          | Cq.Var v ->
              let j0 = first_pos v in
              fun i -> cols.(j).(i) = cols.(j0).(i))
        args
    in
    let matches i = Array.for_all (fun check -> check i) checks in
    let sel = Array.of_seq (Seq.filter matches (Seq.init n Fun.id)) in
    let m = Array.length sel in
    Qrelation.of_columns_unchecked ~scope
      (Array.map (fun col -> Array.init m (fun s -> col.(sel.(s)))) kept)
      ~n:m

let decode db row = Array.map (Intern.name db.intern) row
