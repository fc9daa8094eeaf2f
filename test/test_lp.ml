(* hd_lp: arbitrary-precision integers, exact rationals, and the
   rational simplex — including the cross-check the fhw solvers rely
   on: exact simplex vs brute-force vertex enumeration. *)

module Bigint = Hd_lp.Bigint
module Rat = Hd_lp.Rat
module Simplex = Hd_lp.Simplex

let check = Alcotest.check
let bigint = Alcotest.testable Bigint.pp Bigint.equal
let rat = Alcotest.testable Rat.pp Rat.equal

(* --- Bigint --- *)

let test_bigint_basics () =
  check bigint "0" Bigint.zero (Bigint.of_int 0);
  check bigint "round trip" (Bigint.of_int 123456789) (Bigint.of_string "123456789");
  check Alcotest.string "negative" "-42" (Bigint.to_string (Bigint.of_int (-42)));
  check Alcotest.(option int) "to_int" (Some (-42))
    (Bigint.to_int_opt (Bigint.of_int (-42)));
  check Alcotest.int "compare" (-1)
    (Bigint.compare (Bigint.of_int 5) (Bigint.of_int 7));
  check bigint "min_int survives of_int"
    (Bigint.neg (Bigint.of_string (string_of_int max_int)))
    (Bigint.add (Bigint.of_int min_int) Bigint.one)

let test_bigint_big () =
  (* 2^200 by repeated squaring, checked against the decimal string *)
  let two = Bigint.of_int 2 in
  let rec pow b = function
    | 0 -> Bigint.one
    | n when n land 1 = 1 -> Bigint.mul b (pow b (n - 1))
    | n ->
        let h = pow b (n / 2) in
        Bigint.mul h h
  in
  let p200 = pow two 200 in
  check Alcotest.string "2^200"
    "1606938044258990275541962092341162602522202993782792835301376"
    (Bigint.to_string p200);
  let q, r = Bigint.divmod p200 (Bigint.of_string "1000000007") in
  check bigint "divmod identity" p200
    (Bigint.add (Bigint.mul q (Bigint.of_string "1000000007")) r)

let prop_bigint_matches_int =
  QCheck.Test.make ~count:500 ~name:"bigint ring ops match native ints"
    QCheck.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))
    (fun (a, b) ->
      let ba = Bigint.of_int a and bb = Bigint.of_int b in
      Bigint.to_int_opt (Bigint.add ba bb) = Some (a + b)
      && Bigint.to_int_opt (Bigint.sub ba bb) = Some (a - b)
      && Bigint.to_int_opt (Bigint.mul ba bb) = Some (a * b)
      && Bigint.compare ba bb = compare a b
      && Bigint.to_string ba = string_of_int a
      && (b = 0
         ||
         let q, r = Bigint.divmod ba bb in
         Bigint.to_int_opt q = Some (a / b) && Bigint.to_int_opt r = Some (a mod b)))

let prop_bigint_divmod =
  QCheck.Test.make ~count:200 ~name:"divmod identity on large products"
    QCheck.(triple (int_range 1 max_int) (int_range 1 max_int) (int_range 1 max_int))
    (fun (a, b, d) ->
      let n = Bigint.mul (Bigint.of_int a) (Bigint.of_int b) in
      let d = Bigint.of_int d in
      let q, r = Bigint.divmod n d in
      Bigint.equal n (Bigint.add (Bigint.mul q d) r)
      && Bigint.compare (Bigint.abs r) (Bigint.abs d) < 0)

(* --- Rat --- *)

let test_rat_basics () =
  check rat "normalisation" (Rat.make 3 2) (Rat.make (-6) (-4));
  check Alcotest.string "3/2" "3/2" (Rat.to_string (Rat.make 3 2));
  check Alcotest.string "integral" "3" (Rat.to_string (Rat.make 6 2));
  check rat "of_string" (Rat.make (-7) 5) (Rat.of_string "-7/5");
  check rat "add" (Rat.make 5 6) (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  check rat "mul" (Rat.make 1 3) (Rat.mul (Rat.make 1 2) (Rat.make 2 3));
  check rat "div" (Rat.make 3 4) (Rat.div (Rat.make 1 2) (Rat.make 2 3));
  check Alcotest.int "ceil 3/2" 2 (Rat.ceil (Rat.make 3 2));
  check Alcotest.int "floor 3/2" 1 (Rat.floor (Rat.make 3 2));
  check Alcotest.int "ceil -3/2" (-1) (Rat.ceil (Rat.make (-3) 2));
  check Alcotest.int "floor -3/2" (-2) (Rat.floor (Rat.make (-3) 2));
  check Alcotest.int "ceil integer" 4 (Rat.ceil (Rat.of_int 4));
  check Alcotest.int "compare_int" (-1) (Rat.compare_int (Rat.make 3 2) 2)

let prop_rat_field =
  QCheck.Test.make ~count:500 ~name:"rat field laws on random fractions"
    QCheck.(
      pair
        (pair (int_range (-500) 500) (int_range 1 500))
        (pair (int_range (-500) 500) (int_range 1 500)))
    (fun ((an, ad), (bn, bd)) ->
      let a = Rat.make an ad and b = Rat.make bn bd in
      Rat.equal (Rat.add a b) (Rat.add b a)
      && Rat.equal (Rat.mul a b) (Rat.mul b a)
      && Rat.equal (Rat.sub (Rat.add a b) b) a
      && (Rat.sign b = 0 || Rat.equal (Rat.mul (Rat.div a b) b) a)
      && Rat.compare a b = compare (an * bd) (bn * ad))

(* operands straddling both representations: native parts hold
   magnitudes below 2^30, so values near 2^29, 2^30, 2^31 and 2^61
   exercise the native path, the Bigint path and the switch between
   them *)
let boundary_int =
  QCheck.Gen.(
    let* base = oneofl [ 0; 1; 1 lsl 29; 1 lsl 30; 1 lsl 31; 1 lsl 61 ] in
    let* offset = int_range (-3) 3 in
    let* negative = bool in
    let v = base + offset in
    return (if negative then -v else v))

let boundary_rat =
  QCheck.make
    ~print:(fun (n, d) -> Printf.sprintf "%d/%d" n d)
    QCheck.Gen.(
      pair boundary_int (map (fun d -> if d = 0 then 1 else abs d) boundary_int))

(* every operation against its defining Bigint identity, computed from
   num/den; plus the canonical form: normalised parts, one printed form
   and one hash per value, and of_string inverting to_string *)
let prop_rat_matches_bigint =
  QCheck.Test.make ~count:1000 ~name:"rat ops match bigint identities"
    (QCheck.pair boundary_rat boundary_rat)
    (fun ((an, ad), (bn, bd)) ->
      let open Bigint in
      let a = Rat.make an ad and b = Rat.make bn bd in
      let na = Rat.num a and da = Rat.den a and nb = Rat.num b and db = Rat.den b in
      let normal r =
        sign (Rat.den r) > 0
        && equal (gcd (Rat.num r) (Rat.den r)) one
        && Rat.equal r (Rat.make_big (Rat.num r) (Rat.den r))
      in
      (* r = n/d, checked by cross-multiplication *)
      let is r n d = normal r && equal (mul (Rat.num r) d) (mul n (Rat.den r)) in
      let canonical x y =
        (* equal values, built along different paths *)
        Rat.equal x y
        && Rat.hash x = Rat.hash y
        && Rat.to_string x = Rat.to_string y
        && Rat.equal (Rat.of_string (Rat.to_string x)) x
      in
      let three = of_int 3 in
      normal a && normal b
      && Rat.equal a (Rat.make_big (of_int an) (of_int ad))
      && canonical a (Rat.make_big (mul na three) (mul da three))
      && canonical (Rat.add a b) (Rat.add b a)
      && is (Rat.add a b) (add (mul na db) (mul nb da)) (mul da db)
      && is (Rat.sub a b) (sub (mul na db) (mul nb da)) (mul da db)
      && is (Rat.mul a b) (mul na nb) (mul da db)
      && is (Rat.neg a) (neg na) da
      && Rat.compare a b = compare (mul na db) (mul nb da)
      && (Rat.compare a b = 0) = Rat.equal a b
      && Rat.sign a = sign na
      && Rat.is_integer a = equal da one
      && (Rat.sign b = 0
         || is (Rat.div a b) (mul na db) (mul da nb) && is (Rat.inv b) db nb)
      &&
      let fl = of_int (Rat.floor a) and cl = of_int (Rat.ceil a) in
      compare (mul fl da) na <= 0
      && compare na (mul (add fl one) da) < 0
      && compare (mul cl da) na >= 0
      && compare na (mul (sub cl one) da) > 0)

(* --- Simplex: exact vs brute force --- *)

(* Brute-force LP solver by vertex enumeration: for [min c.x, Ax >= b,
   x >= 0] with n variables, some optimal solution (when one exists)
   lies at a vertex of the feasible polyhedron, i.e. a point where n
   linearly independent constraints (rows of A or axes x_j = 0) are
   tight.  Enumerate all n-subsets of the m + n constraints, solve each
   linear system by exact Gaussian elimination, keep the best feasible
   solution. *)
let brute_force ~objective ~constraints ~bounds =
  let n = Array.length objective and m = Array.length constraints in
  let rows =
    Array.append
      (Array.mapi (fun i row -> (Array.copy row, bounds.(i))) constraints)
      (Array.init n (fun j ->
           (Array.init n (fun j' -> if j = j' then Rat.one else Rat.zero), Rat.zero)))
  in
  let total = Array.length rows in
  let best = ref None in
  let solve subset =
    (* gaussian elimination on the n x n system given by [subset] *)
    let a = Array.map (fun i -> Array.copy (fst rows.(i))) subset in
    let b = Array.map (fun i -> snd rows.(i)) subset in
    let x = Array.make n Rat.zero in
    let ok = ref true in
    (try
       for col = 0 to n - 1 do
         let p = ref (-1) in
         for r = col to n - 1 do
           if !p < 0 && Rat.sign a.(r).(col) <> 0 then p := r
         done;
         if !p < 0 then begin
           ok := false;
           raise Exit
         end;
         let tmp = a.(col) in
         a.(col) <- a.(!p);
         a.(!p) <- tmp;
         let tb = b.(col) in
         b.(col) <- b.(!p);
         b.(!p) <- tb;
         for r = 0 to n - 1 do
           if r <> col && Rat.sign a.(r).(col) <> 0 then begin
             let f = Rat.div a.(r).(col) a.(col).(col) in
             for c = col to n - 1 do
               a.(r).(c) <- Rat.sub a.(r).(c) (Rat.mul f a.(col).(c))
             done;
             b.(r) <- Rat.sub b.(r) (Rat.mul f b.(col))
           end
         done
       done
     with Exit -> ());
    if !ok then begin
      for j = 0 to n - 1 do
        x.(j) <- Rat.div b.(j) a.(j).(j)
      done;
      (* feasibility: x >= 0 and every original constraint satisfied *)
      let feasible =
        Array.for_all (fun v -> Rat.sign v >= 0) x
        && Array.for_all
             (fun i ->
               let row, bnd = rows.(i) in
               let dot = ref Rat.zero in
               for j = 0 to n - 1 do
                 dot := Rat.add !dot (Rat.mul row.(j) x.(j))
               done;
               Rat.compare !dot bnd >= 0)
             (Array.init m (fun i -> i))
      in
      if feasible then begin
        let value = ref Rat.zero in
        for j = 0 to n - 1 do
          value := Rat.add !value (Rat.mul objective.(j) x.(j))
        done;
        match !best with
        | Some v when Rat.compare v !value <= 0 -> ()
        | _ -> best := Some !value
      end
    end
  in
  let rec subsets start acc k =
    if k = 0 then solve (Array.of_list (List.rev acc))
    else
      for i = start to total - k do
        subsets (i + 1) (i :: acc) (k - 1)
      done
  in
  subsets 0 [] n;
  !best

let random_cover_lp rng =
  (* a random 0/1 covering LP: n <= 4 columns, m <= 4 rows, every row
     non-empty so the instance is feasible and bounded *)
  let n = 1 + Random.State.int rng 4 and m = 1 + Random.State.int rng 4 in
  let constraints =
    Array.init m (fun _ ->
        let row = Array.init n (fun _ ->
            if Random.State.bool rng then Rat.one else Rat.zero)
        in
        if Array.for_all (fun v -> Rat.sign v = 0) row then
          row.(Random.State.int rng n) <- Rat.one;
        row)
  in
  let objective = Array.init n (fun _ -> Rat.of_int (1 + Random.State.int rng 3)) in
  let bounds = Array.init m (fun _ -> Rat.of_int (1 + Random.State.int rng 2)) in
  (objective, constraints, bounds)

let prop_simplex_vs_brute_force =
  QCheck.Test.make ~count:120 ~name:"exact simplex = brute-force vertex enumeration"
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 0x51 |] in
      let objective, constraints, bounds = random_cover_lp rng in
      match Simplex.minimize ~objective ~constraints ~bounds with
      | Simplex.Optimal { value; solution; dual } ->
          let dot a x =
            let acc = ref Rat.zero in
            Array.iteri (fun j c -> acc := Rat.add !acc (Rat.mul c x.(j))) a;
            !acc
          in
          let column j = Array.map (fun row -> row.(j)) constraints in
          (* the reported solution must be feasible and achieve value *)
          Rat.equal value (dot objective solution)
          && Array.for_all (fun v -> Rat.sign v >= 0) solution
          && Array.for_all2
               (fun row b -> Rat.compare (dot row solution) b >= 0)
               constraints bounds
          (* the dual must be feasible (A^T y <= c, y >= 0) and achieve
             value: a weak-duality certificate of optimality *)
          && Array.length dual = Array.length bounds
          && Array.for_all (fun v -> Rat.sign v >= 0) dual
          && Array.for_all
               (fun j -> Rat.compare (dot (column j) dual) objective.(j) <= 0)
               (Array.init (Array.length objective) Fun.id)
          && Rat.equal value (dot bounds dual)
          && (match brute_force ~objective ~constraints ~bounds with
             | Some bf -> Rat.equal bf value
             | None -> false)
      | Simplex.Infeasible ->
          (* covering LPs with non-empty rows are feasible *)
          false)

let ints = Array.map Rat.of_int

let optimal_value = function
  | Simplex.Optimal { value; _ } -> value
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"

let test_simplex_basic () =
  (* min x + y subject to x + y >= 2, x >= 1/2: a fractional bound,
     which the 0/1 covering LPs of the property never produce *)
  check rat "value" (Rat.of_int 2)
    (optimal_value
       (Simplex.minimize ~objective:(ints [| 1; 1 |])
          ~constraints:[| ints [| 1; 1 |]; ints [| 1; 0 |] |]
          ~bounds:[| Rat.of_int 2; Rat.make 1 2 |]))

let test_simplex_negative_objective () =
  (* min -x with x >= 1 is unbounded below: the solver only takes
     non-negative objectives, whose minimum is bounded by 0 *)
  match
    Simplex.minimize ~objective:(ints [| -1 |]) ~constraints:[| ints [| 1 |] |]
      ~bounds:(ints [| 1 |])
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a negative objective entry must be rejected"

let test_simplex_redundant_rows () =
  (* 2x + 2y >= 2 repeats x + y >= 1: the duplicate row must not
     break the solver; optimum 2 at x = 1 *)
  check rat "redundant" (Rat.of_int 2)
    (optimal_value
       (Simplex.minimize ~objective:(ints [| 2; 3 |])
          ~constraints:[| ints [| 1; 1 |]; ints [| 2; 2 |] |]
          ~bounds:(ints [| 1; 2 |])))

let test_simplex_triangle () =
  (* the fractional vertex: cover the triangle's three vertices with
     three pair-edges — optimum 3/2 at weight 1/2 each, not integral *)
  let objective = Array.make 3 Rat.one in
  let constraints =
    [|
      [| Rat.one; Rat.zero; Rat.one |];
      [| Rat.one; Rat.one; Rat.zero |];
      [| Rat.zero; Rat.one; Rat.one |];
    |]
  in
  let bounds = Array.make 3 Rat.one in
  match Simplex.minimize ~objective ~constraints ~bounds with
  | Simplex.Optimal { value; solution; _ } ->
      check rat "rho* = 3/2 exactly" (Rat.make 3 2) value;
      Array.iter (fun w -> check rat "w = 1/2" (Rat.make 1 2) w) solution
  | _ -> Alcotest.fail "triangle LP must be optimal"

let test_simplex_triangle_lp () =
  (* the triangle LP with its pairwise-sum rows in the other order:
     min x1 + x2 + x3 with x1 + x2, x2 + x3, x1 + x3 >= 1; the optimum
     3/2 must not depend on row order, and the solution must be feasible *)
  let constraints =
    [| ints [| 1; 1; 0 |]; ints [| 0; 1; 1 |]; ints [| 1; 0; 1 |] |]
  in
  match
    Simplex.minimize ~objective:(ints [| 1; 1; 1 |]) ~constraints
      ~bounds:(ints [| 1; 1; 1 |])
  with
  | Simplex.Optimal { value; solution; _ } ->
      check rat "triangle LP" (Rat.make 3 2) value;
      Array.iter
        (fun row ->
          let lhs = ref Rat.zero in
          Array.iteri (fun j a -> lhs := Rat.add !lhs (Rat.mul a solution.(j))) row;
          Alcotest.(check bool) "row covered" true (Rat.compare !lhs Rat.one >= 0))
        constraints
  | _ -> Alcotest.fail "triangle LP must be optimal"

let test_simplex_infeasible () =
  (* x1 >= 1 with objective forcing... an all-zero row can never reach 1 *)
  match
    Simplex.minimize ~objective:[| Rat.one |]
      ~constraints:[| [| Rat.zero |] |] ~bounds:[| Rat.one |]
  with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "0*x >= 1 must be infeasible"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "hd_lp"
    [
      ( "bigint",
        [
          Alcotest.test_case "basics" `Quick test_bigint_basics;
          Alcotest.test_case "2^200" `Quick test_bigint_big;
        ] );
      ("rat", [ Alcotest.test_case "basics" `Quick test_rat_basics ]);
      ( "simplex",
        [
          Alcotest.test_case "triangle 3/2" `Quick test_simplex_triangle;
          Alcotest.test_case "triangle LP" `Quick test_simplex_triangle_lp;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "basic" `Quick test_simplex_basic;
          Alcotest.test_case "negative objective rejected" `Quick
            test_simplex_negative_objective;
          Alcotest.test_case "redundant rows" `Quick test_simplex_redundant_rows;
        ] );
      qsuite "properties"
        [
          prop_bigint_matches_int;
          prop_bigint_divmod;
          prop_rat_field;
          prop_rat_matches_bigint;
          prop_simplex_vs_brute_force;
        ];
    ]
