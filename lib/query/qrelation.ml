module Obs = Hd_obs.Obs

let h_relation_size = Obs.Histogram.make "query.relation_size"

type t = {
  scope : int array;
  cols : int array array;  (* cols.(j).(i) = row i, column j *)
  n : int;
}

let check_scope scope =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun v ->
      if Hashtbl.mem seen v then
        invalid_arg "Qrelation: duplicate attribute in scope";
      Hashtbl.add seen v ())
    scope

let scope r = r.scope
let arity r = Array.length r.scope
let cardinality r = r.n
let is_empty r = r.n = 0
let get r i j = r.cols.(j).(i)
let col r j = r.cols.(j)
let columns r = r.cols
let row r i = Array.map (fun col -> col.(i)) r.cols

let rows r =
  List.init r.n (row r)

(* rows assumed distinct and of the right arity *)
let of_rows_unchecked ~scope rows ~n =
  let k = Array.length scope in
  let cols = Array.init k (fun _ -> Array.make n 0) in
  List.iteri
    (fun i row ->
      for j = 0 to k - 1 do
        cols.(j).(i) <- row.(j)
      done)
    rows;
  Obs.Histogram.observe h_relation_size n;
  { scope; cols; n }

(* columns assumed equal-length, rows distinct; scope not revalidated —
   the columnar kernel's materialisation entry point *)
let of_columns_unchecked ~scope cols ~n =
  Obs.Histogram.observe h_relation_size n;
  { scope; cols; n }

let make ~scope rows =
  check_scope scope;
  let k = Array.length scope in
  let seen = Hashtbl.create (max 16 (List.length rows)) in
  let deduped = ref [] in
  let n = ref 0 in
  List.iter
    (fun row ->
      if Array.length row <> k then
        invalid_arg "Qrelation.make: tuple arity mismatch";
      if not (Hashtbl.mem seen row) then begin
        Hashtbl.add seen row ();
        deduped := row :: !deduped;
        incr n
      end)
    rows;
  of_rows_unchecked ~scope (List.rev !deduped) ~n:!n

let position r attr =
  let k = Array.length r.scope in
  let rec go j =
    if j >= k then raise Not_found
    else if r.scope.(j) = attr then j
    else go (j + 1)
  in
  go 0

let positions r attrs = Array.map (position r) attrs

(* a column scan: joins probe through Colexec, so no index is kept for
   the odd membership test *)
let mem r tuple =
  let k = arity r in
  Array.length tuple = k
  &&
  let rec matches i j =
    j = k || (r.cols.(j).(i) = tuple.(j) && matches i (j + 1))
  in
  let rec scan i = i < r.n && (matches i 0 || scan (i + 1)) in
  scan 0

let equal a b =
  a.scope = b.scope
  && a.n = b.n
  && List.sort compare (rows a) = List.sort compare (rows b)

let pp ppf r =
  Format.fprintf ppf "@[<v>scope(%s): %d rows"
    (String.concat "," (Array.to_list (Array.map string_of_int r.scope)))
    r.n;
  for i = 0 to min (r.n - 1) 19 do
    Format.fprintf ppf "@,(%s)"
      (String.concat ","
         (Array.to_list (Array.map string_of_int (row r i))))
  done;
  if r.n > 20 then Format.fprintf ppf "@,...";
  Format.fprintf ppf "@]"
