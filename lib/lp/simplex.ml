(* Exact single-phase dual simplex over dense Rat tableaus.

   Minimises c.x subject to A x >= b, x >= 0 with c >= 0 and b >= 0 —
   the shape of the fractional-edge-cover LP (one >= 1 row per vertex
   of a bag, one column per candidate hyperedge).  Instead of the
   primal, it solves the dual packing LP  max b.y  s.t.  A^T y <= c,
   y >= 0,  whose all-slack basis is feasible because c >= 0: no phase
   1, no artificial columns.  At the optimum the primal x is read off
   the reduced costs of the slack columns, and both optima agree by
   strong duality.  Both the entering and the leaving choice follow
   Bland's smallest-index rule, so the method terminates on every
   input without any perturbation; all zero tests are exact, so the
   reported optimum is the true rational optimum, not a float-epsilon
   approximation. *)

module Obs = Hd_obs.Obs

let c_solves = Obs.Counter.make "lp.solves"
let c_pivots = Obs.Counter.make "lp.pivots"

type outcome =
  | Optimal of { value : Rat.t; solution : Rat.t array; dual : Rat.t array }
  | Infeasible

(* Tableau layout: [n] rows, one per primal variable (dual constraint
   A^T_j y + s_j = c_j), and the objective row (last), holding the
   reduced costs of  max b.y  and, in the rhs, the current objective
   value.  Columns are the [m] dual variables y, the [n] slacks s, and
   the right-hand side (last).  [basis.(row)] is the variable currently
   basic in that row. *)
let pivot rows basis ~row ~col =
  Obs.Counter.incr c_pivots;
  let prow = rows.(row) in
  let scale = prow.(col) in
  (* only the pivot row's nonzero columns change any other row *)
  let nonzero = ref [] in
  for j = Array.length prow - 1 downto 0 do
    if Rat.sign prow.(j) <> 0 then begin
      prow.(j) <- Rat.div prow.(j) scale;
      nonzero := j :: !nonzero
    end
  done;
  Array.iteri
    (fun i r ->
      let factor = r.(col) in
      if i <> row && Rat.sign factor <> 0 then
        List.iter (fun j -> r.(j) <- Rat.sub r.(j) (Rat.mul factor prow.(j))) !nonzero)
    rows;
  basis.(row) <- col

(* Bland's rule: entering variable = smallest index with negative
   reduced cost; leaving row = exact minimum ratio, ties broken by the
   smallest basic-variable index.  Guarantees termination.  No leaving
   row means the dual is unbounded along the entering column. *)
let rec iterate rows basis ~n ~rhs =
  let objective = rows.(n) in
  let entering = ref (-1) in
  let j = ref 0 in
  while !entering < 0 && !j < rhs do
    if Rat.sign objective.(!j) < 0 then entering := !j;
    incr j
  done;
  if !entering < 0 then `Optimal
  else begin
    let col = !entering in
    let best_row = ref (-1) and best_ratio = ref Rat.zero in
    for i = 0 to n - 1 do
      let coeff = rows.(i).(col) in
      if Rat.sign coeff > 0 then begin
        let ratio = Rat.div rows.(i).(rhs) coeff in
        let better =
          !best_row < 0
          ||
          let c = Rat.compare ratio !best_ratio in
          c < 0 || (c = 0 && basis.(i) < basis.(!best_row))
        in
        if better then begin
          best_ratio := ratio;
          best_row := i
        end
      end
    done;
    if !best_row < 0 then `Unbounded
    else begin
      pivot rows basis ~row:!best_row ~col;
      iterate rows basis ~n ~rhs
    end
  end

let minimize ~objective ~constraints ~bounds =
  Obs.Counter.incr c_solves;
  let m = Array.length constraints in
  let n = Array.length objective in
  if Array.length bounds <> m then
    invalid_arg "Simplex.minimize: bounds length mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Simplex.minimize: constraint arity mismatch")
    constraints;
  Array.iter
    (fun b ->
      if Rat.sign b < 0 then invalid_arg "Simplex.minimize: negative bound")
    bounds;
  Array.iter
    (fun c ->
      if Rat.sign c < 0 then invalid_arg "Simplex.minimize: negative objective")
    objective;
  (* columns: m dual variables, n slacks, then the rhs *)
  let rhs = m + n in
  let rows = Array.make_matrix (n + 1) (rhs + 1) Rat.zero in
  let basis = Array.init n (fun j -> m + j) in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      rows.(j).(i) <- constraints.(i).(j)
    done;
    rows.(j).(m + j) <- Rat.one;
    rows.(j).(rhs) <- objective.(j)
  done;
  for i = 0 to m - 1 do
    rows.(n).(i) <- Rat.neg bounds.(i)
  done;
  match iterate rows basis ~n ~rhs with
  | `Unbounded -> Infeasible
  | `Optimal ->
      let dual = Array.make m Rat.zero in
      Array.iteri (fun j b -> if b < m then dual.(b) <- rows.(j).(rhs)) basis;
      Optimal
        {
          value = rows.(n).(rhs);
          solution = Array.sub rows.(n) m n;
          dual;
        }
