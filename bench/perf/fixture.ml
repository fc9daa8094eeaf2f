(* Benchmark inputs, all generated from the seed: the bundled corpus,
   renamed resubmissions of it, a random digraph for the query
   workload, and the conjunctive-query shapes with a reference matcher
   that checks the system's answer counts. *)

module H = Hd_hypergraph.Hypergraph

(* [selftest] shrinks every workload to a few instances so the
   self-test finishes in seconds *)
let tiny = ref false

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- the bundled corpus ----------------------------------------------- *)

type instance = {
  collection : string;
  name : string;
  text : string;
  h : H.t;
}

let key i = i.collection ^ "/" ^ i.name

let corpus () =
  Hd_instances.Mini_corpus.collections ()
  |> List.concat_map (fun (collection, files) ->
         List.map
           (fun (file, text) ->
             {
               collection;
               name = Hd_corpus.Corpus.name_of_path file;
               text;
               h = Hd_corpus.Corpus.parse_string ~source:file text;
             })
           files)

let weight i = H.n_vertices i.h + H.n_edges i.h

let smallest k instances =
  List.stable_sort (fun a b -> compare (weight a) (weight b)) instances
  |> List.filteri (fun i _ -> i < k)

(* the tiny self-test keeps only the smallest instances *)
let sized instances = if !tiny then smallest 8 instances else instances

(* [renamed rng h] is [h] as atom-format text with fresh vertex and edge
   names, shuffled edge order and shuffled arguments: the same
   hypergraph up to isomorphism, parsed into a different vertex
   numbering. *)
let renamed rng h =
  let tag = Random.State.int rng 1_000_000 in
  let vperm = shuffle rng (Array.init (H.n_vertices h) Fun.id) in
  let edges = shuffle rng (Array.init (H.n_edges h) Fun.id) in
  Array.to_list edges
  |> List.mapi (fun k e ->
         let args = shuffle rng (H.edge h e) in
         Printf.sprintf "r%d_%d(%s)" k tag
           (String.concat ","
              (Array.to_list
                 (Array.map (fun v -> Printf.sprintf "x%d_%d" vperm.(v) tag) args))))
  |> String.concat ",\n"
  |> fun s -> s ^ "."

(* --- the query workload's database ------------------------------------ *)

(* every vertex has [out_degree] distinct out-neighbours, none itself:
   a fixed out-degree keeps the work per query close to the same from
   seed to seed *)
type digraph = { n : int; arcs : (int * int) array }

let digraph rng ~n ~out_degree =
  let arcs = ref [] in
  for u = n - 1 downto 0 do
    let targets = Hashtbl.create out_degree in
    while Hashtbl.length targets < out_degree do
      let v = Random.State.int rng n in
      if v <> u then Hashtbl.replace targets v ()
    done;
    Hashtbl.iter (fun v () -> arcs := (u, v) :: !arcs) targets
  done;
  { n; arcs = Array.of_list (List.sort compare !arcs) }

let write_csv path g =
  let oc = open_out path in
  Array.iter (fun (u, v) -> Printf.fprintf oc "n%d,n%d\n" u v) g.arcs;
  close_out oc

(* --- conjunctive-query shapes ------------------------------------------ *)

type shape = {
  shape : string;
  nvars : int;
  head : int array;  (** variables of the head, by index *)
  body : (int * int) list;  (** [e(Xi,Xj)] atoms *)
  ghw : int;  (** the shape's generalized hypertree width *)
}

let shapes =
  let all n = Array.init n Fun.id in
  [|
    { shape = "triangle"; nvars = 3; head = all 3; body = [ (0, 1); (1, 2); (2, 0) ]; ghw = 2 };
    { shape = "cycle4"; nvars = 4; head = all 4; body = [ (0, 1); (1, 2); (2, 3); (3, 0) ]; ghw = 2 };
    {
      shape = "cycle5";
      nvars = 5;
      head = all 5;
      body = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ];
      ghw = 2;
    };
    {
      shape = "chord4";
      nvars = 4;
      head = all 4;
      body = [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ];
      ghw = 2;
    };
    { shape = "path2"; nvars = 3; head = [| 0; 2 |]; body = [ (0, 1); (1, 2) ]; ghw = 1 };
    { shape = "path3"; nvars = 4; head = all 4; body = [ (0, 1); (1, 2); (2, 3) ]; ghw = 1 };
    { shape = "star3"; nvars = 4; head = [| 0 |]; body = [ (0, 1); (0, 2); (0, 3) ]; ghw = 1 };
  |]

(* the shape as rule text with fresh variable and head names *)
let cq_text rng s =
  let tag = Random.State.int rng 1_000_000 in
  let var i = Printf.sprintf "V%d_%d" i tag in
  Printf.sprintf "q%s_%d(%s) :- %s." s.shape tag
    (String.concat "," (Array.to_list (Array.map var s.head)))
    (String.concat ", "
       (List.map (fun (a, b) -> Printf.sprintf "e(%s,%s)" (var a) (var b)) s.body))

(* [count_answers g s] is the number of distinct answers of [s] over
   [g], by backtracking over adjacency lists: variables are bound in
   index order, each from the neighbours of an already-bound variable
   when the body links them.  Independent of the system under test. *)
let count_answers g s =
  let arcs = Hashtbl.create (Array.length g.arcs) in
  Array.iter (fun a -> Hashtbl.replace arcs a ()) g.arcs;
  let out = Array.make g.n [] and inn = Array.make g.n [] in
  Hashtbl.iter
    (fun (u, v) () ->
      out.(u) <- v :: out.(u);
      inn.(v) <- u :: inn.(v))
    arcs;
  let everyone = List.init g.n Fun.id in
  let bound = Array.make s.nvars (-1) in
  let full = Array.length s.head = s.nvars in
  let answers = Hashtbl.create 1024 and total = ref 0 in
  let rec go k =
    if k = s.nvars then begin
      if full then incr total
      else Hashtbl.replace answers (Array.map (fun i -> bound.(i)) s.head) ()
    end
    else begin
      let candidates =
        match
          List.find_opt (fun (a, b) -> (a = k && b < k) || (b = k && a < k)) s.body
        with
        | Some (a, b) when b = k -> out.(bound.(a))
        | Some (_, b) -> inn.(bound.(b))
        | None -> everyone
      in
      List.iter
        (fun x ->
          bound.(k) <- x;
          if
            List.for_all
              (fun (a, b) ->
                a > k || b > k || (a <> k && b <> k) || Hashtbl.mem arcs (bound.(a), bound.(b)))
              s.body
          then go (k + 1))
        candidates;
      bound.(k) <- -1
    end
  in
  go 0;
  if full then !total else Hashtbl.length answers

(* The shapes of the 7 bulk requests.  The shapes sit on the points of
   the Fano plane, placed by the seed, and each request is one of its 7
   lines {i, i+1, i+3} mod 7: every shape occurs in 3 requests and
   every pair of shapes shares exactly one, so the multiset of request
   costs barely depends on the placement. *)
let fano_lines rng =
  let point = shuffle rng (Array.init 7 Fun.id) in
  Array.init 7 (fun i -> List.map (fun d -> shapes.(point.((i + d) mod 7))) [ 0; 1; 3 ])
