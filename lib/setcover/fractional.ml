module Bitset = Hd_graph.Bitset
module Hypergraph = Hd_hypergraph.Hypergraph
module Rat = Hd_lp.Rat
module Obs = Hd_obs.Obs

let c_oracle = Obs.Counter.make "lp.oracle_calls"

type solution = {
  value : Rat.t;
  weights : (int * Rat.t) list;
  packing : (int * Rat.t) list;
}

let candidate_edges { Set_cover.universe; hypergraph } =
  Bitset.iter
    (fun v ->
      if Hypergraph.incident hypergraph v = [] then
        invalid_arg "Fractional.cover: vertex lies in no hyperedge")
    universe;
  let vertices = Bitset.elements universe in
  let seen = Hashtbl.create 16 in
  let candidates =
    List.concat_map (fun v -> Hypergraph.incident hypergraph v) vertices
    |> List.filter (fun e ->
           if Hashtbl.mem seen e then false
           else begin
             Hashtbl.add seen e ();
             true
           end)
    |> Array.of_list
  in
  (vertices, candidates)

(* the positive entries of [values], keyed by [keys] *)
let positive keys values =
  Array.to_list (Array.mapi (fun i k -> (k, values.(i))) keys)
  |> List.filter (fun (_, w) -> Rat.sign w > 0)

let cover problem =
  Obs.Counter.incr c_oracle;
  let { Set_cover.hypergraph; _ } = problem in
  let vertices, candidates = candidate_edges problem in
  if vertices = [] then { value = Rat.zero; weights = []; packing = [] }
  else begin
    let n = Array.length candidates in
    let vertices = Array.of_list vertices in
    let constraints =
      Array.map
        (fun v ->
          Array.map
            (fun e ->
              if Array.exists (( = ) v) (Hypergraph.edge hypergraph e) then
                Rat.one
              else Rat.zero)
            candidates)
        vertices
    in
    match
      Hd_lp.Simplex.minimize
        ~objective:(Array.make n Rat.one)
        ~constraints
        ~bounds:(Array.make (Array.length vertices) Rat.one)
    with
    | Hd_lp.Simplex.Optimal { value; solution; dual } ->
        {
          value;
          weights = positive candidates solution;
          packing = positive vertices dual;
        }
    | Hd_lp.Simplex.Infeasible ->
        (* cannot happen: weight 1 on every candidate is feasible *)
        assert false
  end

let cover_value problem = (cover problem).value

let total weights = List.fold_left (fun acc (_, w) -> Rat.add acc w) Rat.zero weights

(* the weight [weights] (keyed by vertex or by edge) puts on the
   incidences selected by [mem] *)
let received mem weights =
  List.fold_left (fun acc (k, w) -> if mem k then Rat.add acc w else acc) Rat.zero weights

let in_edge hypergraph e v = Array.exists (( = ) v) (Hypergraph.edge hypergraph e)

let verify { Set_cover.universe; hypergraph } weights =
  List.for_all (fun (_, w) -> Rat.sign w >= 0) weights
  && Bitset.for_all
       (fun v ->
         Rat.compare_int (received (fun e -> in_edge hypergraph e v) weights) 1 >= 0)
       universe

let verify_packing { Set_cover.universe; hypergraph } packing =
  List.for_all
    (fun (v, w) ->
      Rat.sign w >= 0 && v >= 0 && v < Bitset.capacity universe && Bitset.mem universe v)
    packing
  && List.for_all
       (fun e -> Rat.compare_int (received (in_edge hypergraph e) packing) 1 <= 0)
       (List.init (Hypergraph.n_edges hypergraph) Fun.id)

let certify problem { value; weights; packing } =
  verify problem weights
  && verify_packing problem packing
  && Rat.equal (total weights) value
  && Rat.equal (total packing) value
