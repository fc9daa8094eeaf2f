(* Arbitrary-precision signed integers: sign + little-endian magnitude
   in base 2^30.  Limbs are OCaml ints, so every intermediate product
   (limb * limb + two carries < 2^61) stays inside the native 63-bit
   range — no boxing, no external dependency.  The operation set is
   exactly what exact rational arithmetic needs: ring ops, comparison,
   divmod (for gcd and floor/ceil) and decimal conversion. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

(* invariants: [mag] has no high (trailing) zero limbs; [sign] is -1, 0
   or 1, and 0 exactly when [mag] is empty *)
type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }
let one = { sign = 1; mag = [| 1 |] }

(* --- magnitude helpers (arrays may carry high zeros on input) --- *)

let effective_length m =
  let l = ref (Array.length m) in
  while !l > 0 && m.(!l - 1) = 0 do
    decr l
  done;
  !l

let norm_mag m =
  let l = effective_length m in
  if l = Array.length m then m else Array.sub m 0 l

let cmp_mag a b =
  let la = effective_length a and lb = effective_length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let cur =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- cur land limb_mask;
    carry := cur lsr limb_bits
  done;
  norm_mag r

(* requires a >= b *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let cur = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if cur < 0 then begin
      r.(i) <- cur + base;
      borrow := 1
    end
    else begin
      r.(i) <- cur;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  norm_mag r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let cur = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- cur land limb_mask;
          carry := cur lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let cur = r.(!k) + !carry in
          r.(!k) <- cur land limb_mask;
          carry := cur lsr limb_bits;
          incr k
        done
      end
    done;
    norm_mag r
  end

let bit_length m =
  let l = effective_length m in
  if l = 0 then 0
  else begin
    let top = m.(l - 1) in
    let bits = ref 0 in
    let v = ref top in
    while !v > 0 do
      incr bits;
      v := !v lsr 1
    done;
    ((l - 1) * limb_bits) + !bits
  end

let bit m i =
  let limb = i / limb_bits in
  if limb >= Array.length m then false
  else m.(limb) land (1 lsl (i mod limb_bits)) <> 0

(* shift-subtract long division on magnitudes: O(bits(n) * limbs(d)).
   The numbers flowing through rational pivoting stay small (every Rat
   is gcd-normalised), so the simple algorithm wins over Knuth D. *)
let divmod_mag n d =
  let ld = effective_length d in
  if ld = 0 then raise Division_by_zero;
  if cmp_mag n d < 0 then ([||], norm_mag (Array.copy n))
  else begin
    let nbits = bit_length n in
    let q = Array.make (Array.length n) 0 in
    (* remainder stays < d, so ld + 1 limbs suffice for the doubled
       intermediate *)
    let r = Array.make (ld + 1) 0 in
    for i = nbits - 1 downto 0 do
      (* r := 2r + bit_i(n) *)
      let carry = ref (if bit n i then 1 else 0) in
      for j = 0 to ld do
        let cur = (r.(j) lsl 1) lor !carry in
        r.(j) <- cur land limb_mask;
        carry := cur lsr limb_bits
      done;
      if cmp_mag r d >= 0 then begin
        (* r := r - d *)
        let borrow = ref 0 in
        for j = 0 to ld do
          let cur = r.(j) - (if j < ld then d.(j) else 0) - !borrow in
          if cur < 0 then begin
            r.(j) <- cur + base;
            borrow := 1
          end
          else begin
            r.(j) <- cur;
            borrow := 0
          end
        done;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (norm_mag q, norm_mag r)
  end

(* --- signed interface --- *)

let of_mag sign m = if Array.length m = 0 then zero else { sign; mag = m }

let of_int v =
  if v = 0 then zero
  else begin
    (* via Int64 so [abs min_int] cannot overflow *)
    let sign = if v < 0 then -1 else 1 in
    let m = ref (Int64.abs (Int64.of_int v)) in
    let limbs = ref [] in
    while Int64.compare !m 0L > 0 do
      limbs := Int64.to_int (Int64.logand !m (Int64.of_int limb_mask)) :: !limbs;
      m := Int64.shift_right_logical !m limb_bits
    done;
    { sign; mag = Array.of_list (List.rev !limbs) }
  end

let to_int_opt v =
  (* fits when the magnitude is below 2^62 *)
  if bit_length v.mag > 62 then None
  else begin
    let acc = ref 0 in
    for i = Array.length v.mag - 1 downto 0 do
      acc := (!acc lsl limb_bits) lor v.mag.(i)
    done;
    if !acc < 0 then None else Some (v.sign * !acc)
  end

let is_zero v = v.sign = 0
let sign v = v.sign
let neg v = { v with sign = -v.sign }
let abs v = { v with sign = Stdlib.abs v.sign }
let equal a b = a.sign = b.sign && cmp_mag a.mag b.mag = 0

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else a.sign * cmp_mag a.mag b.mag

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then { sign = a.sign; mag = add_mag a.mag b.mag }
  else begin
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then { sign = a.sign; mag = sub_mag a.mag b.mag }
    else { sign = b.sign; mag = sub_mag b.mag a.mag }
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else { sign = a.sign * b.sign; mag = mul_mag a.mag b.mag }

(* truncated division: quotient rounds toward zero, remainder carries
   the dividend's sign — the C convention, matching [Stdlib.( / )] *)
let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = divmod_mag a.mag b.mag in
  (of_mag (a.sign * b.sign) q, of_mag a.sign r)

let gcd a b =
  let rec go a b = if Array.length b = 0 then a else go b (snd (divmod_mag a b)) in
  let m = go (norm_mag a.mag) (norm_mag b.mag) in
  of_mag (if Array.length m = 0 then 0 else 1) m

let to_string v =
  if v.sign = 0 then "0"
  else begin
    (* peel 9 decimal digits at a time with small-divisor division *)
    let d = 1_000_000_000 in
    let chunks = ref [] in
    let m = ref (Array.copy v.mag) in
    while effective_length !m > 0 do
      let cur = !m in
      let l = effective_length cur in
      let q = Array.make l 0 in
      let r = ref 0 in
      for i = l - 1 downto 0 do
        let x = (!r lsl limb_bits) lor cur.(i) in
        q.(i) <- x / d;
        r := x mod d
      done;
      chunks := !r :: !chunks;
      m := norm_mag q
    done;
    let buf = Buffer.create 16 in
    if v.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
    | [] -> Buffer.add_char buf '0'
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let ten = of_int 10 in
  let acc = ref zero in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' ->
        acc := add (mul !acc ten) (of_int (Char.code s.[i] - Char.code '0'))
    | c -> invalid_arg (Printf.sprintf "Bigint.of_string: bad character %C" c)
  done;
  if negative then neg !acc else !acc

let hash v =
  Array.fold_left (fun acc limb -> (acc * 1_000_003) + limb) v.sign v.mag
  land max_int

let pp ppf v = Format.pp_print_string ppf (to_string v)
