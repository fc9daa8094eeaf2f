(* Exact rational numbers, always normalised: positive denominator,
   gcd(|num|, den) = 1, zero represented as 0/1.  Every comparison is
   exact cross-multiplication — no float ever enters a decision path
   built on this module.

   Two representations, chosen by the value alone: [Small] holds both
   parts as native ints whenever |num| < 2^30 and den < 2^30, so any
   cross product is below 2^60 and a sum of two below 2^61 — native
   arithmetic cannot overflow, and no check is needed.  Every other
   value is a [Big] Bigint pair.  The choice is canonical (a value that
   fits is never [Big]), so structural equality of the representation
   is value equality. *)

type t = Small of int * int | Big of Bigint.t * Bigint.t

let limit = 1 lsl 30
let zero = Small (0, 1)
let one = Small (1, 1)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* canonical form of a normalised Bigint pair *)
let of_normal_big num den =
  match (Bigint.to_int_opt num, Bigint.to_int_opt den) with
  | Some n, Some d when abs n < limit && d < limit -> Small (n, d)
  | _ -> Big (num, den)

let make_big num den =
  let s = Bigint.sign den in
  if s = 0 then invalid_arg "Rat.make: zero denominator";
  let num, den = if s < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
  if Bigint.is_zero num then zero
  else begin
    let g = Bigint.gcd num den in
    let num, _ = Bigint.divmod num g in
    let den, _ = Bigint.divmod den g in
    of_normal_big num den
  end

(* [n/d] for native n, d other than min_int, whose negation would
   overflow; products of [Small] parts and their sums stay below 2^61 *)
let of_ints n d =
  if d = 0 then invalid_arg "Rat.make: zero denominator";
  if n = 0 then zero
  else begin
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    let g = gcd_int (abs n) d in
    let n = n / g and d = d / g in
    if abs n < limit && d < limit then Small (n, d)
    else Big (Bigint.of_int n, Bigint.of_int d)
  end

let make num den =
  if num = min_int || den = min_int then
    make_big (Bigint.of_int num) (Bigint.of_int den)
  else of_ints num den

let of_int v = make v 1

let num = function Small (n, _) -> Bigint.of_int n | Big (n, _) -> n
let den = function Small (_, d) -> Bigint.of_int d | Big (_, d) -> d
let is_integer = function Small (_, d) -> d = 1 | Big (_, d) -> Bigint.equal d Bigint.one
let sign = function Small (n, _) -> compare n 0 | Big (n, _) -> Bigint.sign n

let neg = function
  | Small (n, d) -> Small (-n, d)
  | Big (n, d) -> Big (Bigint.neg n, d)

let add a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) ->
      of_ints ((an * bd) + (bn * ad)) (ad * bd)
  | _ ->
      make_big
        (Bigint.add (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a)))
        (Bigint.mul (den a) (den b))

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) -> of_ints (an * bn) (ad * bd)
  | _ -> make_big (Bigint.mul (num a) (num b)) (Bigint.mul (den a) (den b))

let inv = function
  | Small (0, _) -> raise Division_by_zero
  | Small (n, d) -> if n < 0 then Small (-d, -n) else Small (d, n)
  | Big (n, d) -> make_big d n

let div a b = mul a (inv b)

let compare a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) -> Stdlib.compare (an * bd) (bn * ad)
  | _ ->
      Bigint.compare (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a))

let equal a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) -> an = bn && ad = bd
  | Big (an, ad), Big (bn, bd) -> Bigint.equal an bn && Bigint.equal ad bd
  | _ -> false

let max a b = if compare a b >= 0 then a else b
let compare_int v k = compare v (of_int k)

(* floor for a positive-denominator fraction: truncated division is
   floor for non-negative numerators; negative numerators with a
   remainder round one further down *)
let floor_big v =
  let n = num v in
  let q, r = Bigint.divmod n (den v) in
  if Bigint.sign n >= 0 || Bigint.is_zero r then q
  else Bigint.sub q Bigint.one

let to_int_exn what big =
  match Bigint.to_int_opt big with
  | Some i -> i
  | None -> invalid_arg (what ^ ": out of native int range")

let floor = function
  | Small (n, d) -> if n >= 0 || n mod d = 0 then n / d else (n / d) - 1
  | Big _ as v -> to_int_exn "Rat.floor" (floor_big v)

let ceil = function
  | Small (n, d) -> if n <= 0 || n mod d = 0 then n / d else (n / d) + 1
  | Big _ as v -> to_int_exn "Rat.ceil" (Bigint.neg (floor_big (neg v)))

let to_string = function
  | Small (n, 1) -> string_of_int n
  | Small (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | Big (n, d) ->
      if Bigint.equal d Bigint.one then Bigint.to_string n
      else Bigint.to_string n ^ "/" ^ Bigint.to_string d

let of_string s =
  match String.index_opt s '/' with
  | None -> make_big (Bigint.of_string (String.trim s)) Bigint.one
  | Some i ->
      make_big
        (Bigint.of_string (String.trim (String.sub s 0 i)))
        (Bigint.of_string
           (String.trim (String.sub s (i + 1) (String.length s - i - 1))))

let hash v = (Bigint.hash (num v) * 31) + Bigint.hash (den v)
let pp ppf v = Format.pp_print_string ppf (to_string v)
