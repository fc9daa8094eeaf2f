type term = Var of string | Const of string

type atom = { pred : string; args : term array }

type t = {
  head_pred : string;
  head : string array;
  body : atom list;
}

(* ------------------------------------------------------------------ *)
(* Lexer: identifiers, quoted constants, punctuation, ":-".  Every     *)
(* token carries its line so errors can point at the source.           *)
(* ------------------------------------------------------------------ *)

type token = Ident of string | Quoted of string | Lparen | Rparen | Comma | Period | Turnstile

let tokenize ~fail text =
  let n = String.length text in
  let tokens = ref [] in
  let i = ref 0 in
  let line = ref 1 in
  let is_ident_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '\'' -> true
    | _ -> false
  in
  let push tok = tokens := (tok, !line) :: !tokens in
  while !i < n do
    let c = text.[!i] in
    if c = '%' || c = '#' then
      while !i < n && text.[!i] <> '\n' do incr i done
    else if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '(' then begin push Lparen; incr i end
    else if c = ')' then begin push Rparen; incr i end
    else if c = ',' then begin push Comma; incr i end
    else if c = '.' then begin push Period; incr i end
    else if c = ':' then begin
      if !i + 1 < n && text.[!i + 1] = '-' then begin
        push Turnstile;
        i := !i + 2
      end
      else fail !line "expected \":-\""
    end
    else if c = '"' then begin
      let start_line = !line in
      let start = !i + 1 in
      incr i;
      while !i < n && text.[!i] <> '"' do
        if text.[!i] = '\n' then incr line;
        incr i
      done;
      if !i >= n then fail start_line "unterminated string constant";
      push (Quoted (String.sub text start (!i - start)));
      incr i
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char text.[!i] do incr i done;
      push (Ident (String.sub text start (!i - start)))
    end
    else fail !line (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let is_variable_name s =
  String.length s > 0
  && match s.[0] with 'A' .. 'Z' | '_' -> true | _ -> false

let term_of_ident s = if is_variable_name s then Var s else Const s

(* parse one rule off the token stream, returning the remainder *)
let parse_rule ~source tokens =
  let fail line msg =
    failwith (Printf.sprintf "Cq: %s, line %d: %s" source line msg)
  in
  let last_line tokens =
    match List.rev tokens with (_, l) :: _ -> l | [] -> 1
  in
  (* atom := ident LPAREN [term {COMMA term}] RPAREN *)
  let parse_atom tokens =
    match tokens with
    | (Ident pred, line) :: (Lparen, _) :: rest ->
        let rec terms tokens acc expect_term =
          match tokens with
          | (Rparen, _) :: rest ->
              if expect_term && acc <> [] then
                fail line "trailing comma in atom argument list";
              ({ pred; args = Array.of_list (List.rev acc) }, rest)
          | (Ident s, _) :: rest when expect_term ->
              after_term rest (term_of_ident s :: acc)
          | (Quoted s, _) :: rest when expect_term ->
              after_term rest (Const s :: acc)
          | (_, l) :: _ -> fail l (Printf.sprintf "malformed atom %S" pred)
          | [] ->
              fail line
                (Printf.sprintf "unterminated atom %S (missing \")\")" pred)
        and after_term tokens acc =
          match tokens with
          | (Comma, _) :: rest -> terms rest acc true
          | (Rparen, _) :: rest ->
              ({ pred; args = Array.of_list (List.rev acc) }, rest)
          | (_, l) :: _ ->
              fail l (Printf.sprintf "expected ',' or ')' in atom %S" pred)
          | [] ->
              fail line
                (Printf.sprintf "unterminated atom %S (missing \")\")" pred)
        in
        terms rest [] true
    | (Ident pred, line) :: _ ->
        fail line (Printf.sprintf "atom %S lacks an argument list" pred)
    | (_, line) :: _ -> fail line "expected an atom"
    | [] -> fail (last_line tokens) "expected an atom"
  in
  let head_atom, tokens = parse_atom tokens in
  (match tokens with
  | (Turnstile, _) :: _ -> ()
  | (_, line) :: _ -> fail line "expected \":-\" after the head atom"
  | [] -> fail (last_line tokens) "expected \":-\" after the head atom");
  let tokens = List.tl tokens in
  let rec parse_body tokens acc =
    let atom, rest = parse_atom tokens in
    match rest with
    | (Comma, _) :: rest -> parse_body rest (atom :: acc)
    | (Period, _) :: rest -> (List.rev (atom :: acc), rest)
    | [] -> (List.rev (atom :: acc), [])
    | (_, line) :: _ -> fail line "expected ',' or '.' after an atom"
  in
  let body, rest = parse_body tokens [] in
  (* head safety: head terms must be variables occurring in the body *)
  let body_vars = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Array.iter
        (function Var v -> Hashtbl.replace body_vars v () | Const _ -> ())
        a.args)
    body;
  let head =
    Array.map
      (function
        | Var v ->
            if not (Hashtbl.mem body_vars v) then
              fail 1
                (Printf.sprintf
                   "unsafe query: head variable %S does not occur in the body"
                   v);
            v
        | Const c ->
            fail 1
              (Printf.sprintf "head argument %S must be a variable" c))
      head_atom.args
  in
  ({ head_pred = head_atom.pred; head; body }, rest)

let parse_multi_string ?(source = "<query>") text =
  let fail line msg =
    failwith (Printf.sprintf "Cq: %s, line %d: %s" source line msg)
  in
  let rec go tokens acc =
    match tokens with
    | [] -> List.rev acc
    | _ ->
        let q, rest = parse_rule ~source tokens in
        go rest (q :: acc)
  in
  go (tokenize ~fail text) []

let parse_string ?(source = "<query>") text =
  let fail line msg =
    failwith (Printf.sprintf "Cq: %s, line %d: %s" source line msg)
  in
  let q, rest = parse_rule ~source (tokenize ~fail text) in
  (match rest with
  | [] -> ()
  | (_, line) :: _ -> fail line "trailing input after the final '.'");
  q

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_multi_file path = parse_multi_string ~source:path (read_file path)

let parse_file path = parse_string ~source:path (read_file path)

(* a scan of the few variables seen so far: no table per atom *)
let atom_vars a =
  let out = ref [] in
  Array.iter
    (function Var v when not (List.mem v !out) -> out := v :: !out | _ -> ())
    a.args;
  Array.of_list (List.rev !out)

let is_ground a = Array.for_all (function Const _ -> true | Var _ -> false) a.args

let variables q =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun a ->
      Array.iter
        (function
          | Var v ->
              if not (Hashtbl.mem seen v) then begin
                Hashtbl.add seen v ();
                out := v :: !out
              end
          | Const _ -> ())
        a.args)
    q.body;
  Array.of_list (List.rev !out)

let hypergraph q =
  let vars = variables q in
  let id = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.add id v i) vars;
  let proper = List.filter (fun a -> not (is_ground a)) q.body in
  if proper = [] then
    invalid_arg "Cq.hypergraph: no body atom has a variable";
  let edges =
    List.map
      (fun a ->
        Array.to_list (Array.map (Hashtbl.find id) (atom_vars a)))
      proper
  in
  let edge_names = Array.of_list (List.map (fun a -> a.pred) proper) in
  Hd_hypergraph.Hypergraph.create ~vertex_names:vars ~edge_names
    ~n:(Array.length vars) edges

let term_to_string = function
  | Var v -> v
  | Const c ->
      let plain =
        String.length c > 0
        && (not (is_variable_name c))
        && String.for_all
             (function
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '\'' -> true
               | _ -> false)
             c
      in
      if plain then c else "\"" ^ c ^ "\""

let atom_to_string a =
  Printf.sprintf "%s(%s)" a.pred
    (String.concat "," (Array.to_list (Array.map term_to_string a.args)))

let to_string q =
  Printf.sprintf "%s(%s) :- %s." q.head_pred
    (String.concat "," (Array.to_list q.head))
    (String.concat ", " (List.map atom_to_string q.body))
