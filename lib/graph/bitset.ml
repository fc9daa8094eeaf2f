let bits_per_word = Sys.int_size (* 63 on 64-bit systems *)

type t = { words : int array; capacity : int }

let words_for n = (n + bits_per_word - 1) / bits_per_word

let create n =
  assert (n >= 0);
  { words = Array.make (max 1 (words_for n)) 0; capacity = n }

let capacity s = s.capacity

let check s i = assert (i >= 0 && i < s.capacity)

let mem s i =
  check s i;
  s.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add s i =
  check s i;
  let w = i / bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits_per_word))

let remove s i =
  check s i;
  let w = i / bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear s = Array.fill s.words 0 (Array.length s.words) 0

let full n =
  let s = create n in
  for i = 0 to n - 1 do
    add s i
  done;
  s

let copy s = { words = Array.copy s.words; capacity = s.capacity }

let blit ~src ~dst =
  assert (src.capacity = dst.capacity);
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

(* Kernighan-style popcount is fast enough here: adjacency rows are
   sparse in the instances we handle. *)
let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount_word w) 0 s.words

let is_empty s = Array.for_all (fun w -> w = 0) s.words

(* a loop, not a local recursive function: bag tables call this on
   every hit, and a closure would allocate each time *)
let equal a b =
  assert (a.capacity = b.capacity);
  let n = Array.length a.words in
  let i = ref 0 in
  while !i < n && a.words.(!i) = b.words.(!i) do
    incr i
  done;
  !i = n

let subset a b =
  assert (a.capacity = b.capacity);
  let n = Array.length a.words in
  let i = ref 0 in
  while !i < n && a.words.(!i) land lnot b.words.(!i) = 0 do
    incr i
  done;
  !i = n

let union_into ~src ~dst =
  assert (src.capacity = dst.capacity);
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let diff_into ~src ~dst =
  assert (src.capacity = dst.capacity);
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let inter_into ~src ~dst =
  assert (src.capacity = dst.capacity);
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let inter_cardinal a b =
  assert (a.capacity = b.capacity);
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_word (a.words.(i) land b.words.(i))
  done;
  !acc

(* Count-trailing-zeros of an isolated bit [b = w land (-w)] in O(1):
   2 is a primitive root modulo the prime 67, so the powers 2^0..2^62
   are pairwise distinct mod 67 and one table lookup recovers the
   exponent.  (A de Bruijn multiply needs the full 64-bit wrap-around,
   which OCaml's 63-bit ints don't provide; the mod-67 variant costs
   one division instead of up to 62 shift iterations per bit.) *)
let ctz_table =
  let t = Array.make 67 (-1) in
  for k = 0 to bits_per_word - 2 do
    t.((1 lsl k) mod 67) <- k
  done;
  (* the top bit is the sign bit: [land max_int] below maps it to 0,
     a slot no genuine power of two occupies (2^k mod 67 <> 0) *)
  t.(0) <- bits_per_word - 1;
  t

let iter f s =
  for wi = 0 to Array.length s.words - 1 do
    let w = ref s.words.(wi) in
    let base = wi * bits_per_word in
    while !w <> 0 do
      let lsb = !w land - !w in
      f (base + Array.unsafe_get ctz_table (lsb land max_int mod 67));
      w := !w land (!w - 1)
    done
  done

(* [iter]'s word walk resumed at [i]: a caller's plain loop over
   [next] allocates no closure *)
let next s i =
  if i >= s.capacity then -1
  else
    let wi = ref (i / bits_per_word) in
    let w = ref (s.words.(!wi) land (-1 lsl (i mod bits_per_word))) in
    let last = Array.length s.words - 1 in
    while !w = 0 && !wi < last do
      incr wi;
      w := s.words.(!wi)
    done;
    if !w = 0 then -1
    else
      (!wi * bits_per_word)
      + Array.unsafe_get ctz_table (!w land - !w land max_int mod 67)

let lowest_bit w = Array.unsafe_get ctz_table (w land -w land max_int mod 67)

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

exception Found of int

let choose s =
  try
    iter (fun i -> raise (Found i)) s;
    raise Not_found
  with Found i -> i

let exists p s =
  try
    iter (fun i -> if p i then raise (Found i)) s;
    false
  with Found _ -> true

let for_all p s = not (exists (fun i -> not (p i)) s)

(* FNV-1a over the elements in increasing order (iter is ordered), so
   the hash is canonical for the set's contents regardless of how the
   set was built.  The offset basis is the standard 64-bit one
   (0xcbf29ce484222325) truncated to OCaml's 63-bit native int: bit 63
   is dropped and bit 62 lands in the native sign bit, hence the [lor]
   (the 64-bit literal itself does not fit in a native int).
   Arithmetic wraps modulo the native width and the final mask keeps
   the result non-negative. *)
let fnv_offset_basis = 0xbf29ce484222325 lor (1 lsl 62)

(* [iter]'s loop inlined: no closure, so hashing a bag allocates
   nothing *)
let fnv_hash s =
  let h = ref fnv_offset_basis in
  for wi = 0 to Array.length s.words - 1 do
    let w = ref s.words.(wi) in
    let base = wi * bits_per_word in
    while !w <> 0 do
      let lsb = !w land - !w in
      let i = base + Array.unsafe_get ctz_table (lsb land max_int mod 67) in
      h := (!h lxor i) * 0x100000001b3;
      w := !w land (!w - 1)
    done
  done;
  !h land max_int

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements s)
