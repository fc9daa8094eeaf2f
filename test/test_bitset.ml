module Bitset = Hd_graph.Bitset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let test_empty () =
  let s = Bitset.create 10 in
  check_int "cardinal" 0 (Bitset.cardinal s);
  check "is_empty" true (Bitset.is_empty s);
  check "mem" false (Bitset.mem s 3);
  check_list "elements" [] (Bitset.elements s)

let test_add_remove () =
  let s = Bitset.create 100 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  check_int "cardinal" 4 (Bitset.cardinal s);
  check_list "elements" [ 0; 63; 64; 99 ] (Bitset.elements s);
  Bitset.remove s 63;
  check "removed" false (Bitset.mem s 63);
  check "kept" true (Bitset.mem s 64);
  check_int "cardinal after remove" 3 (Bitset.cardinal s)

let test_add_idempotent () =
  let s = Bitset.create 5 in
  Bitset.add s 2;
  Bitset.add s 2;
  check_int "cardinal" 1 (Bitset.cardinal s)

let test_full () =
  let s = Bitset.full 70 in
  check_int "cardinal" 70 (Bitset.cardinal s);
  check "mem 69" true (Bitset.mem s 69)

let test_set_ops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] in
  let b = Bitset.of_list 10 [ 2; 3; 4 ] in
  check_int "inter_cardinal" 2 (Bitset.inter_cardinal a b);
  let u = Bitset.copy a in
  Bitset.union_into ~src:b ~dst:u;
  check_list "union" [ 1; 2; 3; 4 ] (Bitset.elements u);
  let d = Bitset.copy a in
  Bitset.diff_into ~src:b ~dst:d;
  check_list "diff" [ 1 ] (Bitset.elements d);
  let i = Bitset.copy a in
  Bitset.inter_into ~src:b ~dst:i;
  check_list "inter" [ 2; 3 ] (Bitset.elements i)

let test_subset_equal () =
  let a = Bitset.of_list 10 [ 1; 2 ] in
  let b = Bitset.of_list 10 [ 1; 2; 3 ] in
  check "subset" true (Bitset.subset a b);
  check "not subset" false (Bitset.subset b a);
  check "not equal" false (Bitset.equal a b);
  check "equal copy" true (Bitset.equal a (Bitset.copy a))

let test_choose_fold () =
  let a = Bitset.of_list 10 [ 7; 3; 9 ] in
  check_int "choose = min" 3 (Bitset.choose a);
  check_int "fold sum" 19 (Bitset.fold ( + ) a 0);
  check "exists" true (Bitset.exists (fun x -> x = 9) a);
  check "for_all" true (Bitset.for_all (fun x -> x >= 3) a);
  Alcotest.check_raises "choose empty" Not_found (fun () ->
      ignore (Bitset.choose (Bitset.create 4)))

let test_blit () =
  let a = Bitset.of_list 10 [ 1; 5 ] in
  let b = Bitset.of_list 10 [ 2 ] in
  Bitset.blit ~src:a ~dst:b;
  check "blit copies" true (Bitset.equal a b)

(* properties *)

let int_list_gen n = QCheck.Gen.(list_size (0 -- 30) (0 -- (n - 1)))

let prop_elements_sorted_unique =
  QCheck.Test.make ~count:200 ~name:"elements sorted, unique, match cardinal"
    QCheck.(make (int_list_gen 64))
    (fun xs ->
      let s = Bitset.of_list 64 xs in
      let es = Bitset.elements s in
      es = List.sort_uniq compare xs && List.length es = Bitset.cardinal s)

let prop_mem_matches_list =
  QCheck.Test.make ~count:200 ~name:"mem agrees with membership"
    QCheck.(pair (make (int_list_gen 64)) (make QCheck.Gen.(0 -- 63)))
    (fun (xs, probe) ->
      let s = Bitset.of_list 64 xs in
      Bitset.mem s probe = List.mem probe xs)

(* iter is the kernel under set-cover and eval; after the ctz rewrite
   it must agree exactly with elements and mem, including bits at word
   boundaries (0, 62, 63, 64, 125, 126); [next] from every start,
   capacity included, is the first element at or above it *)
let prop_iter_agrees =
  QCheck.Test.make ~count:300 ~name:"iter = elements = mem (ctz correctness)"
    QCheck.(make QCheck.Gen.(list_size (0 -- 40) (0 -- 199)))
    (fun xs ->
      let n = 200 in
      let s = Bitset.of_list n xs in
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) s;
      let via_iter = List.rev !via_iter in
      via_iter = Bitset.elements s
      && List.for_all (fun i -> Bitset.mem s i) via_iter
      && List.for_all
           (fun i -> List.mem i via_iter = Bitset.mem s i)
           (List.init n Fun.id)
      && List.for_all
           (fun i ->
             Bitset.next s i
             = Option.value ~default:(-1)
                 (List.find_opt (fun x -> x >= i) via_iter))
           (List.init (n + 1) Fun.id))

let test_iter_word_boundaries () =
  (* every single-bit set over a 3-word range iterates exactly itself *)
  let n = 190 in
  for i = 0 to n - 1 do
    let s = Bitset.of_list n [ i ] in
    let got = ref (-1) and count = ref 0 in
    Bitset.iter
      (fun j ->
        got := j;
        incr count)
      s;
    if !count <> 1 || !got <> i then
      Alcotest.failf "iter of singleton {%d} yielded %d items, last %d" i
        !count !got
  done

(* The offset basis is the standard 64-bit FNV-1a basis truncated to
   63 bits: bit 63 dropped, bit 62 in the native sign bit.  The final
   non-negativity mask hides bit 62 of the accumulator, so the basis
   fix is observable here only through the exported constant — assert
   both the constant and that the collision rate over a few thousand
   random small sets stays at hash-quality levels. *)
let test_fnv_basis_and_collisions () =
  check "basis keeps the truncated high bit" true
    (Bitset.fnv_offset_basis = 0xbf29ce484222325 lor (1 lsl 62));
  check "basis low bits match the standard constant" true
    (Bitset.fnv_offset_basis land ((1 lsl 60) - 1) = 0xbf29ce484222325);
  let rng = Random.State.make [| 0x5eed |] in
  let n = 160 in
  let seen = Hashtbl.create 4096 and hashes = Hashtbl.create 4096 in
  let distinct = ref 0 and collisions = ref 0 in
  for _ = 1 to 4000 do
    let size = 1 + Random.State.int rng 12 in
    let s = Bitset.create n in
    for _ = 1 to size do
      Bitset.add s (Random.State.int rng n)
    done;
    let key = Bitset.elements s in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      incr distinct;
      let h = Bitset.fnv_hash s in
      if Hashtbl.mem hashes h then incr collisions
      else Hashtbl.add hashes h ()
    end
  done;
  check "enough distinct sets sampled" true (!distinct > 3000);
  (* 63-bit hashes over a few thousand keys: expected collisions ~ 0 *)
  if !collisions > 2 then
    Alcotest.failf "fnv_hash collision rate too high: %d / %d" !collisions
      !distinct

let prop_inter_cardinal =
  QCheck.Test.make ~count:200 ~name:"inter_cardinal = |a ∩ b|"
    QCheck.(pair (make (int_list_gen 64)) (make (int_list_gen 64)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 64 xs and b = Bitset.of_list 64 ys in
      let inter =
        List.sort_uniq compare (List.filter (fun x -> List.mem x ys) xs)
      in
      Bitset.inter_cardinal a b = List.length inter)

(* capacities inside one word, at its last bit, exactly one word and
   across four words; [ys] also takes a prefix of [xs], so that true
   answers are common *)
let prop_subset =
  QCheck.Test.make ~count:400 ~name:"subset = list-based reference"
    QCheck.(
      make
        Gen.(
          oneofl [ 1; 63; 64; 200 ] >>= fun n ->
          map3
            (fun xs ys k ->
              (n, xs, ys @ List.filteri (fun i _ -> i < k) xs))
            (int_list_gen n) (int_list_gen n) (0 -- 30)))
    (fun (n, xs, ys) ->
      let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
      Bitset.subset a b = List.for_all (fun x -> List.mem x ys) xs)

let () =
  Alcotest.run "bitset"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove across words" `Quick test_add_remove;
          Alcotest.test_case "add idempotent" `Quick test_add_idempotent;
          Alcotest.test_case "full" `Quick test_full;
          Alcotest.test_case "union/diff/inter" `Quick test_set_ops;
          Alcotest.test_case "subset/equal" `Quick test_subset_equal;
          Alcotest.test_case "choose/fold/exists" `Quick test_choose_fold;
          Alcotest.test_case "blit" `Quick test_blit;
          Alcotest.test_case "iter word boundaries" `Quick
            test_iter_word_boundaries;
          Alcotest.test_case "fnv basis and collision rate" `Quick
            test_fnv_basis_and_collisions;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_elements_sorted_unique;
            prop_mem_matches_list;
            prop_iter_agrees;
            prop_inter_cardinal;
            prop_subset;
          ] );
    ]
