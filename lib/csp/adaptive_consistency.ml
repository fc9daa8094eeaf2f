module Qrelation = Hd_query.Qrelation

(* the variables of [rels]' scopes, first occurrence first *)
let union_scope rels =
  let vars =
    List.fold_left
      (fun acc r ->
        Array.fold_left
          (fun acc u -> if List.mem u acc then acc else u :: acc)
          acc (Qrelation.scope r))
      [] rels
  in
  Array.of_list (List.rev vars)

let solve csp sigma =
  let n = Csp.n_variables csp in
  if not (Hd_core.Ordering.is_permutation sigma) || Array.length sigma <> n
  then invalid_arg "Adaptive_consistency.solve: not a permutation";
  if n = 0 then Some [||]
  else begin
    let pos = Hd_core.Ordering.positions sigma in
    (* bucket of a relation: the position of its first-eliminated
       (largest-position) variable *)
    let buckets = Array.make n [] in
    let place r =
      let scope = Qrelation.scope r in
      if Array.length scope > 0 then begin
        let p = Array.fold_left (fun acc v -> max acc pos.(v)) 0 scope in
        buckets.(p) <- r :: buckets.(p)
      end
    in
    List.iter place (Csp.constraints csp);
    (* forward phase: join each bucket, project the variable away *)
    let processed = Array.make n None in
    let rec forward i =
      if i < 0 then true
      else begin
        let v = sigma.(i) in
        let rels = Csp.domain_relation csp v :: buckets.(i) in
        let joined = Hd_query.Join_tree.bag rels ~scope:(union_scope rels) in
        processed.(i) <- Some joined;
        if Qrelation.is_empty joined then false
        else begin
          let rest =
            Array.of_list
              (List.filter (( <> ) v) (Array.to_list (Qrelation.scope joined)))
          in
          if Array.length rest > 0 then
            place (Hd_query.Join_tree.bag [ joined ] ~scope:rest);
          forward (i - 1)
        end
      end
    in
    if not (forward (n - 1)) then None
    else begin
      (* backward phase: assign variables in reverse elimination order
         (position 0 first), each consistent with its bucket's join *)
      let assignment = Array.make n min_int in
      let ok = ref true in
      for i = 0 to n - 1 do
        if !ok then begin
          let v = sigma.(i) in
          match processed.(i) with
          | None -> ok := false
          | Some joined ->
              let scope = Qrelation.scope joined in
              (* the bucket's other variables come later in elimination
                 order, so they are already assigned *)
              let rec consistent row k =
                k = Array.length scope
                || (scope.(k) = v
                   || Qrelation.get joined row k = assignment.(scope.(k)))
                   && consistent row (k + 1)
              in
              let rec first row =
                if row >= Qrelation.cardinality joined then ok := false
                else if consistent row 0 then
                  assignment.(v) <-
                    Qrelation.get joined row (Qrelation.position joined v)
                else first (row + 1)
              in
              first 0
        end
      done;
      if !ok && Csp.consistent csp assignment then Some assignment else None
    end
  end

let solve_auto ?(seed = 0) csp =
  let h = Csp.hypergraph csp in
  let rng = Random.State.make [| seed |] in
  let sigma = Hd_core.Ordering_heuristics.min_fill_hypergraph rng h in
  solve csp sigma
