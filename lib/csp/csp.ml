module Qrelation = Hd_query.Qrelation

type t = {
  domains : int array array;
  constraints : Qrelation.t list;
  variable_names : string array option;
}

let make ?variable_names ~domains constraints =
  let n = Array.length domains in
  List.iter
    (fun r ->
      Array.iter
        (fun v ->
          if v < 0 || v >= n then
            invalid_arg "Csp.make: constraint scope out of range")
        (Qrelation.scope r))
    constraints;
  (match variable_names with
  | Some names when Array.length names <> n ->
      invalid_arg "Csp.make: variable_names length mismatch"
  | _ -> ());
  { domains; constraints; variable_names }

let n_variables csp = Array.length csp.domains
let domain csp v = csp.domains.(v)
let constraints csp = csp.constraints
let n_constraints csp = List.length csp.constraints

let domain_relation csp v =
  Qrelation.make ~scope:[| v |]
    (Array.to_list (Array.map (fun x -> [| x |]) csp.domains.(v)))

let variable_name csp v =
  match csp.variable_names with
  | Some names -> names.(v)
  | None -> "x" ^ string_of_int v

let hypergraph csp =
  let n = n_variables csp in
  let scopes =
    List.map (fun r -> Array.to_list (Qrelation.scope r)) csp.constraints
  in
  let covered = Array.make n false in
  List.iter (List.iter (fun v -> covered.(v) <- true)) scopes;
  let singletons =
    List.filter_map
      (fun v -> if covered.(v) then None else Some [ v ])
      (List.init n Fun.id)
  in
  let vertex_names =
    Array.init n (fun v -> variable_name csp v)
  in
  Hd_hypergraph.Hypergraph.create ~vertex_names ~n (scopes @ singletons)

let consistent csp assignment =
  List.for_all
    (fun r ->
      let tuple =
        Array.map (fun v -> assignment.(v)) (Qrelation.scope r)
      in
      Qrelation.mem r tuple)
    csp.constraints

(* Backtracking over variables in index order; after each assignment,
   every fully-assigned constraint is checked. *)
let backtrack csp ~on_solution =
  let n = n_variables csp in
  let assignment = Array.make n min_int in
  (* constraints indexed by their largest variable, so each is checked
     exactly once, as soon as it becomes fully assigned *)
  let by_last = Array.make (max n 1) [] in
  List.iter
    (fun r ->
      let last = Array.fold_left max 0 (Qrelation.scope r) in
      by_last.(last) <- r :: by_last.(last))
    csp.constraints;
  let rec assign v =
    if v = n then on_solution assignment
    else
      Array.iter
        (fun value ->
          assignment.(v) <- value;
          let ok =
            List.for_all
              (fun r ->
                let tuple =
                  Array.map (fun u -> assignment.(u)) (Qrelation.scope r)
                in
                Qrelation.mem r tuple)
              by_last.(v)
          in
          if ok then assign (v + 1))
        csp.domains.(v)
  in
  if n = 0 then on_solution assignment else assign 0

exception Found of int array

let solve_backtracking csp =
  try
    backtrack csp ~on_solution:(fun a -> raise (Found (Array.copy a)));
    None
  with Found a -> Some a

let count_solutions csp =
  let count = ref 0 in
  backtrack csp ~on_solution:(fun _ -> incr count);
  !count
