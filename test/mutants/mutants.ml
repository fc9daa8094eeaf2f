(* Byte mutants of seed texts, for the properties that every reader
   either parses its input or fails closed with a located error.  A
   mutant applies 1 to 3 single-byte inserts, deletes or replaces to
   one of the seeds.  New bytes come half from [grammar], the bytes the
   format is made of, so that mutants reach deep into the grammar, and
   half from any byte. *)
let gen ~grammar seeds =
  let open QCheck.Gen in
  let grammar = List.of_seq (String.to_seq grammar) in
  let byte = oneof [ oneofl grammar; char ] in
  let mutate text =
    let len = String.length text in
    int_range 0 2 >>= fun op ->
    int_bound (max 0 (len - 1)) >>= fun i ->
    byte >|= fun c ->
    let before = String.sub text 0 i and after j = String.sub text j (len - j) in
    match op with
    | 0 -> before ^ String.make 1 c ^ after i
    | 1 when len > 0 -> before ^ after (i + 1)
    | _ when len > 0 -> before ^ String.make 1 c ^ after (i + 1)
    | _ -> String.make 1 c
  in
  oneofl seeds >>= fun text ->
  int_range 1 3 >>= fun k ->
  let rec go k t = if k = 0 then pure t else mutate t >>= go (k - 1) in
  go k text

let arbitrary ~grammar seeds = QCheck.make ~print:(Printf.sprintf "%S") (gen ~grammar seeds)
