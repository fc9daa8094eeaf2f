module Graph = Hd_graph.Graph
module Elim_graph = Hd_graph.Elim_graph
module Contract_graph = Hd_graph.Contract_graph

(* a fresh copy of one pristine state per call: a bound computed
   without [rng] depends on its input alone, never on earlier calls in
   the process.  [pristine] is only ever copied, so domains share it
   safely. *)
let pristine = Random.State.make [| 0x5eed |]

let get_rng = function
  | Some rng -> rng
  | None -> Random.State.copy pristine

(* The one contraction kernel behind every bound here: while a vertex
   is live, [pick] one and record its degree, then contract it into its
   minimum-degree neighbour, or delete it when it is isolated or
   [contract] is false.  [pick] finding no vertex (gamma_R on a clique)
   records the clique's treewidth, size - 1, and ends the run.  Returns
   the largest value recorded. *)
let contract_down ?(contract = true) cg ~rng ~pick =
  let lb = ref 0 in
  while Contract_graph.n_alive cg > 0 do
    match pick cg ~rng with
    | None ->
        lb := max !lb (Contract_graph.n_alive cg - 1);
        Contract_graph.clear cg
    | Some v ->
        let d = Contract_graph.degree cg v in
        lb := max !lb d;
        if d = 0 || not contract then Contract_graph.remove cg v
        else
          let u = Contract_graph.min_degree_neighbor cg v ~rng in
          Contract_graph.contract cg u v
  done;
  !lb

let min_degree cg ~rng = Some (Contract_graph.min_degree_vertex cg ~rng)

let degeneracy g =
  (* no randomness needed: any minimum-degree vertex gives the same
     bound value *)
  contract_down ~contract:false (Contract_graph.of_graph g)
    ~rng:(Random.State.make [| 0 |]) ~pick:min_degree

let minor_min_width ?rng g =
  contract_down (Contract_graph.of_graph g) ~rng:(get_rng rng) ~pick:min_degree

let minor_gamma_r ?rng g =
  contract_down (Contract_graph.of_graph g) ~rng:(get_rng rng)
    ~pick:Contract_graph.gamma_vertex

let best_over_trials ?rng ~trials f =
  let rng = get_rng rng in
  let rec go i acc = if i >= trials then acc else go (i + 1) (max acc (f rng)) in
  go 0 0

(* each trial runs minor-gamma_R, then minor-min-width — the order the
   random draws follow — each on a fresh copy [load] writes into [cg] *)
let treewidth_on ?rng ?(trials = 3) cg ~load =
  best_over_trials ?rng ~trials (fun rng ->
      load cg;
      let gamma = contract_down cg ~rng ~pick:Contract_graph.gamma_vertex in
      load cg;
      max (contract_down cg ~rng ~pick:min_degree) gamma)

let treewidth ?rng ?trials g =
  treewidth_on ?rng ?trials
    (Contract_graph.create (Graph.n g))
    ~load:(fun cg -> Contract_graph.load_graph cg g)

let treewidth_of_elim ?rng ?trials ~workspace eg =
  treewidth_on ?rng ?trials workspace ~load:(fun cg ->
      Contract_graph.load_elim_graph cg eg)

(* the minor-min-width run with each recorded degree d converted through
   the k-set-cover bound ceil((d + 1) / k): that bound is monotone in d,
   so converting the largest degree suffices *)
let tw_ksc_width_on ?rng ?(trials = 3) ~max_edge_size cg ~load =
  let k = max 1 max_edge_size in
  best_over_trials ?rng ~trials (fun rng ->
      load cg;
      if Contract_graph.n_alive cg = 0 then 0
      else (contract_down cg ~rng ~pick:min_degree + k) / k)

let tw_ksc_width ?rng ?trials ~max_edge_size g =
  tw_ksc_width_on ?rng ?trials ~max_edge_size
    (Contract_graph.create (Graph.n g))
    ~load:(fun cg -> Contract_graph.load_graph cg g)

let ghw ?rng ?trials h =
  tw_ksc_width ?rng ?trials
    ~max_edge_size:(Hd_hypergraph.Hypergraph.max_edge_size h)
    (Hd_hypergraph.Hypergraph.primal h)

let ghw_of_elim ?rng ?trials ~workspace ~max_edge_size eg =
  tw_ksc_width_on ?rng ?trials ~max_edge_size workspace ~load:(fun cg ->
      Contract_graph.load_elim_graph cg eg)
