module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph

type outcome = Exact of int | Bounds of { lb : int; ub : int }

type result = {
  outcome : outcome;
  visited : int;
  generated : int;
  elapsed : float;
  ordering : int array option;
}

type kind = Tw | Ghw | Fhw | Hw
type problem = Graph of Graph.t | Hypergraph of Hypergraph.t

type t = {
  name : string;
  kind : kind;
  doc : string;
  run : ?seed:int -> Budget.t -> problem -> result;
}

(* the table is written once at startup but read from racing domains:
   a mutex keeps Hashtbl's invariants safe *)
let lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref []

let register s =
  Mutex.protect lock (fun () ->
      if not (Hashtbl.mem registry s.name) then order := !order @ [ s.name ];
      Hashtbl.replace registry s.name s)

let find name = Mutex.protect lock (fun () -> Hashtbl.find_opt registry name)

let all () =
  Mutex.protect lock (fun () ->
      List.filter_map (fun n -> Hashtbl.find_opt registry n) !order)

let names () = List.map (fun s -> s.name) (all ())
let kind_name = function Tw -> "tw" | Ghw -> "ghw" | Fhw -> "fhw" | Hw -> "hw"
let primal_of = function Graph g -> g | Hypergraph h -> Hypergraph.primal h

let hypergraph_of = function
  | Graph g -> Hypergraph.of_graph g
  | Hypergraph h -> h

let n_vertices = function
  | Graph g -> Graph.n g
  | Hypergraph h -> Hypergraph.n_vertices h

let value = function Exact w -> w | Bounds { ub; _ } -> ub
let bounds_of = function Exact w -> (w, w) | Bounds { lb; ub } -> (lb, ub)

let pp_outcome ppf = function
  | Exact w -> Format.fprintf ppf "%d (exact)" w
  | Bounds { lb; ub } -> Format.fprintf ppf "[%d,%d]" lb ub
