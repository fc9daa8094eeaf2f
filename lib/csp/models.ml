module Graph = Hd_graph.Graph
module Qrelation = Hd_query.Qrelation

let all_different_pairs ~domain_size =
  let tuples = ref [] in
  for a = domain_size - 1 downto 0 do
    for b = domain_size - 1 downto 0 do
      if a <> b then tuples := [| a; b |] :: !tuples
    done
  done;
  !tuples

let graph_coloring g ~colors =
  let edges = Graph.edges g in
  let pairs = all_different_pairs ~domain_size:colors in
  let constraints =
    List.map (fun (u, v) -> Qrelation.make ~scope:[| u; v |] pairs) edges
  in
  let domains = Array.init (Graph.n g) (fun _ -> Array.init colors Fun.id) in
  Csp.make ~domains constraints

let australia () =
  (* WA=0 NT=1 Q=2 SA=3 NSW=4 V=5 TAS=6 *)
  let names = [| "WA"; "NT"; "Q"; "SA"; "NSW"; "V"; "TAS" |] in
  let borders =
    [ (1, 0); (3, 0); (1, 2); (1, 3); (2, 3); (4, 2); (4, 5); (4, 3); (3, 5) ]
  in
  let pairs = all_different_pairs ~domain_size:3 in
  let constraints =
    List.map (fun (u, v) -> Qrelation.make ~scope:[| u; v |] pairs) borders
  in
  let domains = Array.init 7 (fun _ -> [| 0; 1; 2 |]) in
  Csp.make ~variable_names:names ~domains constraints

let example5 () =
  (* values: a=0, b=1, c=2 *)
  let a = 0 and b = 1 and c = 2 in
  let r1 = [ [| a; b; c |]; [| a; c; b |]; [| b; b; c |] ] in
  let r2 = [ [| a; b; c |]; [| a; c; b |] ] in
  let r3 = [ [| c; b; c |]; [| c; c; b |] ] in
  let constraints =
    [
      Qrelation.make ~scope:[| 0; 1; 2 |] r1;
      Qrelation.make ~scope:[| 0; 4; 5 |] r2;
      Qrelation.make ~scope:[| 2; 3; 4 |] r3;
    ]
  in
  let domains =
    Array.init 6 (fun v -> if v = 0 then [| a; b |] else [| b; c |])
  in
  Csp.make
    ~variable_names:[| "x1"; "x2"; "x3"; "x4"; "x5"; "x6" |]
    ~domains constraints

let sat clauses ~n_vars =
  let constraints =
    List.map
      (fun clause ->
        let vars =
          List.sort_uniq compare (List.map (fun l -> abs l - 1) clause)
        in
        let scope = Array.of_list vars in
        let k = Array.length scope in
        let index_of v =
          let rec go i = if scope.(i) = v then i else go (i + 1) in
          go 0
        in
        let satisfying = ref [] in
        for mask = (1 lsl k) - 1 downto 0 do
          let value v = (mask lsr index_of v) land 1 in
          let satisfied =
            List.exists
              (fun l ->
                let v = abs l - 1 in
                if l > 0 then value v = 1 else value v = 0)
              clause
          in
          if satisfied then
            satisfying := Array.init k (fun i -> (mask lsr i) land 1) :: !satisfying
        done;
        Qrelation.make ~scope !satisfying)
      clauses
  in
  let domains = Array.init n_vars (fun _ -> [| 0; 1 |]) in
  Csp.make ~domains constraints

let n_queens n =
  let constraints = ref [] in
  for r1 = 0 to n - 1 do
    for r2 = r1 + 1 to n - 1 do
      let tuples = ref [] in
      for c1 = n - 1 downto 0 do
        for c2 = n - 1 downto 0 do
          if c1 <> c2 && abs (c1 - c2) <> r2 - r1 then
            tuples := [| c1; c2 |] :: !tuples
        done
      done;
      constraints := Qrelation.make ~scope:[| r1; r2 |] !tuples :: !constraints
    done
  done;
  let domains = Array.init n (fun _ -> Array.init n Fun.id) in
  Csp.make ~domains !constraints

let random_csp ~seed ~n_vars ~domain_size ~n_constraints ~arity ~tightness =
  let rng = Random.State.make [| seed |] in
  let random_scope () =
    let rec draw acc =
      if List.length acc = arity then Array.of_list (List.sort compare acc)
      else
        let v = Random.State.int rng n_vars in
        if List.mem v acc then draw acc else draw (v :: acc)
    in
    draw []
  in
  let constraints =
    List.init n_constraints (fun _ ->
        let scope = random_scope () in
        let tuples = ref [] in
        let total = int_of_float (float_of_int domain_size ** float_of_int arity) in
        for code = 0 to total - 1 do
          if Random.State.float rng 1.0 >= tightness then begin
            let tuple = Array.make arity 0 in
            let rest = ref code in
            for i = 0 to arity - 1 do
              tuple.(i) <- !rest mod domain_size;
              rest := !rest / domain_size
            done;
            tuples := tuple :: !tuples
          end
        done;
        Qrelation.make ~scope !tuples)
  in
  let domains = Array.init n_vars (fun _ -> Array.init domain_size Fun.id) in
  Csp.make ~domains constraints
