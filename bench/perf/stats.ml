(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* linear interpolation between closest ranks; 0. on no samples *)
let quantile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = float_of_int (n - 1) *. p in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* first and third quartile exactly as Python's
   statistics.quantiles(xs, n=4) (method "exclusive") computes them, so
   the spreads [compare] reports are the ones other tooling sees *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 3)
