module Obs = Hd_obs.Obs

(* Observability: the vector-at-a-time execution kernel.  Selection
   vectors replace materialised semijoin intermediates, radix
   partitions replace boxed-key Hashtbl indexes; the counters attribute
   the per-tuple join work of queries and CSPs alike. *)
let c_selvec_semijoins = Obs.Counter.make "query.selvec_semijoins"
let c_selvec_kept = Obs.Counter.make "query.selvec_kept_rows"
let c_radix_partitions = Obs.Counter.make "query.radix_partitions"
let c_radix_probes = Obs.Counter.make "query.radix_probes"
let c_radix_bucket_skips = Obs.Counter.make "query.radix_bucket_skips"
let c_radix_join_tuples = Obs.Counter.make "query.radix_join_tuples"

(* ------------------------------------------------------------------ *)
(* Selection vectors and key hashing                                   *)
(* ------------------------------------------------------------------ *)

type sel = int array

let all_rows r = Array.init (Qrelation.cardinality r) Fun.id

(* ------------------------------------------------------------------ *)
(* Partitioned-parallel probe loops                                    *)
(* ------------------------------------------------------------------ *)

module Sched = Hd_engine.Scheduler

(* Chunk boundaries are a function of the probe count and the grain
   alone — never of the worker count or the interleaving — and chunk
   outputs are concatenated in chunk order, so a parallel pass is
   byte-identical to the sequential scan at any [-j]. *)
let grain = 2048

(* A pass above the grain forks onto a worker domain that is already
   running ([Sched.warm]).  Starting one is paid only for a pass above
   [fork_rows].  That value was picked from query-bulk runs at 4,096,
   16,384 and 32,768 (docs/PERFORMANCE.md section 15): below 32,768
   its bulk queries started workers for passes that did not repay
   them. *)
let fork_rows = 32_768

(* [chunked ?work par n scan] runs [scan lo hi] over deterministic
   chunks of [0, n) and returns the per-chunk results in chunk order.
   Falls back to one inline chunk when [par] is absent or sequential,
   when the input is within the grain, or when the pass's [work]
   (default [n]; a join-project counts bindings) is at most
   [fork_rows] and no worker is running. *)
let chunked ?(work = 0) (par : Sched.t option) n (scan : int -> int -> 'a) :
    'a array =
  match par with
  | Some s
    when Sched.size s > 0 && n > grain
         && (max work n > fork_rows || Sched.warm s) ->
      let nc = (n + grain - 1) / grain in
      let out = Array.make nc None in
      Sched.run_all s
        (List.init nc (fun c () ->
             let lo = c * grain in
             out.(c) <- Some (scan lo (min n (lo + grain)))));
      Array.map
        (function Some v -> v | None -> failwith "Colexec.chunked: lost chunk")
        out
  | _ -> [| scan 0 n |]

(* Multiplicative mixing over the key columns.  Only [bucket_of] needs
   a non-negative value; full hashes are compared raw (deterministic
   native-int wraparound). *)
let[@inline] mix h v = ((h + v) * 0x9E3779B97F4A7) lxor (h lsr 31)

let hash_cols (cols : int array array) (pos : int array) i =
  let h = ref 0x50b7f1 in
  for j = 0 to Array.length pos - 1 do
    h := mix !h cols.(pos.(j)).(i)
  done;
  !h

let hash_vals (key : int array) =
  let h = ref 0x50b7f1 in
  for j = 0 to Array.length key - 1 do
    h := mix !h key.(j)
  done;
  !h

let[@inline] bucket_of h mask = (h lxor (h lsr 17)) land mask

(* smallest power of two >= max 8 n, capped so a tiny build side never
   allocates a huge bucket directory *)
let directory_size n =
  let b = ref 8 in
  while !b < n && !b < 1 lsl 20 do
    b := !b lsl 1
  done;
  !b

let cols_at r pos = Array.map (fun p -> Qrelation.col r p) pos

(* ------------------------------------------------------------------ *)
(* Growable int vectors (join outputs of unknown size)                 *)
(* ------------------------------------------------------------------ *)

module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create ?(capacity = 16) () = { a = Array.make (max 1 capacity) 0; len = 0 }

  let push t v =
    if t.len = Array.length t.a then begin
      let a' = Array.make (2 * Array.length t.a) 0 in
      Array.blit t.a 0 a' 0 t.len;
      t.a <- a'
    end;
    t.a.(t.len) <- v;
    t.len <- t.len + 1

  let get t i = t.a.(i)
  let set t i v = t.a.(i) <- v
  let length t = t.len
  let to_array t = Array.sub t.a 0 t.len
end

(* ------------------------------------------------------------------ *)
(* Radix partitioning                                                  *)
(* ------------------------------------------------------------------ *)

(* build-side rows scattered into hash buckets by counting sort: rows
   of bucket [b] are [rows.(starts.(b) .. starts.(b+1) - 1)], with the
   full key hash kept per entry so probes reject mismatches without
   touching the columns *)
type partition = {
  mask : int;
  starts : int array;
  rows : int array;
  hashes : int array;
  occupied : int;  (* non-empty buckets *)
}

let partition r pos sel =
  Obs.Counter.incr c_radix_partitions;
  let n = Array.length sel in
  let cols = Qrelation.columns r in
  let nbuckets = directory_size n in
  let mask = nbuckets - 1 in
  let hs = Array.make n 0 in
  let counts = Array.make (nbuckets + 1) 0 in
  let occupied = ref 0 in
  for s = 0 to n - 1 do
    let h = hash_cols cols pos sel.(s) in
    hs.(s) <- h;
    let b = bucket_of h mask in
    if counts.(b + 1) = 0 then incr occupied;
    counts.(b + 1) <- counts.(b + 1) + 1
  done;
  for b = 1 to nbuckets do
    counts.(b) <- counts.(b) + counts.(b - 1)
  done;
  let starts = Array.copy counts in
  let rows = Array.make n 0 and hashes = Array.make n 0 in
  for s = 0 to n - 1 do
    let b = bucket_of hs.(s) mask in
    let slot = counts.(b) in
    counts.(b) <- slot + 1;
    rows.(slot) <- sel.(s);
    hashes.(slot) <- hs.(s)
  done;
  { mask; starts; rows; hashes; occupied = !occupied }

let[@inline] cols_equal_at (acols : int array array) i (bcols : int array array)
    jb =
  let k = Array.length acols in
  let rec go j = j >= k || (acols.(j).(i) = bcols.(j).(jb) && go (j + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Checked counts                                                      *)
(* ------------------------------------------------------------------ *)

let count_overflow () =
  failwith
    (Printf.sprintf "count overflow: more than max_int (%d) solutions" max_int)

let count_add a b =
  let s = a + b in
  if s < a then count_overflow () else s

let count_mul a b =
  if a <> 0 && b > max_int / a then count_overflow () else a * b

(* ------------------------------------------------------------------ *)
(* Selection-vector semijoin                                           *)
(* ------------------------------------------------------------------ *)

let semijoin ?par ~probe:(ra, sela, pa) ~build:(rb, selb, pb) () =
  Obs.Counter.incr c_selvec_semijoins;
  let result =
    if Array.length selb = 0 then [||]
    else begin
      let part = partition rb pb selb in
      let acols = cols_at ra pa and bcols = cols_at rb pb in
      let probe_cols = Qrelation.columns ra in
      let scan lo hi =
        let out = Ivec.create ~capacity:(max 16 (hi - lo)) () in
        for s = lo to hi - 1 do
          let i = sela.(s) in
          let h = hash_cols probe_cols pa i in
          let b = bucket_of h part.mask in
          let lo' = part.starts.(b) and hi' = part.starts.(b + 1) in
          if lo' = hi' then Obs.Counter.incr c_radix_bucket_skips
          else begin
            Obs.Counter.incr c_radix_probes;
            let e = ref lo' in
            let hit = ref false in
            while (not !hit) && !e < hi' do
              if
                part.hashes.(!e) = h
                && cols_equal_at acols i bcols part.rows.(!e)
              then hit := true
              else incr e
            done;
            if !hit then Ivec.push out i
          end
        done;
        Ivec.to_array out
      in
      match chunked par (Array.length sela) scan with
      | [| one |] -> one
      | many -> Array.concat (Array.to_list many)
    end
  in
  Obs.Counter.add c_selvec_kept (Array.length result);
  result

(* ------------------------------------------------------------------ *)
(* Pipelined join-project                                              *)
(* ------------------------------------------------------------------ *)

(* zero-allocation comparisons of columns [j] down to 0 at row [i]
   against the values [env] holds at slots [keys] *)
let rec key_eq (cols : int array array) i (env : int array) (keys : int array) j =
  j < 0 || (cols.(j).(i) = env.(keys.(j)) && key_eq cols i env keys (j - 1))

let rec ivecs_eq (cols : Ivec.t array) i (env : int array) (keys : int array) j =
  j < 0
  || (cols.(j).Ivec.a.(i) = env.(keys.(j)) && ivecs_eq cols i env keys (j - 1))

let hash_at (env : int array) (keys : int array) =
  let h = ref 0x50b7f1 in
  for j = 0 to Array.length keys - 1 do
    h := mix !h env.(keys.(j))
  done;
  !h

(* the table a join-project writes its projections into: distinct
   tuples kept column-wise in first-occurrence order, found again
   through a chained hash whose directory doubles with the table.
   Without [dedup] (the projection keeps every attribute, so no two
   bindings project alike) it only appends. *)
module Distinct = struct
  type t = {
    dedup : bool;
    cols : Ivec.t array;
    hashes : Ivec.t;
    next : Ivec.t;
    mutable head : int array;
    mutable n : int;
  }

  (* [capacity]: the tuples expected, so a table sized for them is
     not regrown; only a deduplicating table has a hash chain *)
  let create ~dedup ~capacity k =
    let chained = if dedup then capacity else 0 in
    {
      dedup;
      cols = Array.init k (fun _ -> Ivec.create ~capacity ());
      hashes = Ivec.create ~capacity:chained ();
      next = Ivec.create ~capacity:chained ();
      head = Array.make (if dedup then directory_size capacity else 0) (-1);
      n = 0;
    }

  let rehash t =
    let head = Array.make (2 * Array.length t.head) (-1) in
    let mask = Array.length head - 1 in
    for s = 0 to t.n - 1 do
      let b = bucket_of (Ivec.get t.hashes s) mask in
      Ivec.set t.next s head.(b);
      head.(b) <- s
    done;
    t.head <- head

  (* whether the chain from [s] holds the tuple hashed [h] *)
  let rec seen t h env proj s =
    s >= 0
    && ((Ivec.get t.hashes s = h
        && ivecs_eq t.cols s env proj (Array.length proj - 1))
       || seen t h env proj (Ivec.get t.next s))

  let push t (env : int array) (proj : int array) =
    for j = 0 to Array.length proj - 1 do
      Ivec.push t.cols.(j) env.(proj.(j))
    done;
    t.n <- t.n + 1

  (* adds the tuple [env.(proj.(0)), ..., env.(proj.(k-1))] unless it
     is already there *)
  let add t env proj =
    if not t.dedup then push t env proj
    else begin
      let h = hash_at env proj in
      let b = bucket_of h (Array.length t.head - 1) in
      if not (seen t h env proj t.head.(b)) then begin
        push t env proj;
        Ivec.push t.hashes h;
        Ivec.push t.next t.head.(b);
        t.head.(b) <- t.n - 1;
        if t.n > Array.length t.head then rehash t
      end
    end

  (* appends [src]'s tuples not already in [t], in [src]'s order *)
  let merge t src =
    let k = Array.length src.cols in
    let row = Array.make k 0 and proj = Array.init k Fun.id in
    for s = 0 to src.n - 1 do
      for j = 0 to k - 1 do
        row.(j) <- Ivec.get src.cols.(j) s
      done;
      add t row proj
    done

  let to_relation t ~scope =
    Qrelation.of_columns_unchecked ~scope:(Array.copy scope)
      (Array.map Ivec.to_array t.cols)
      ~n:t.n
end

(* the largest dedupe table a join-project allocates up front; a larger
   output regrows it *)
let max_capacity = 1 lsl 16

(* a relation after the first: partitioned once on the attributes it
   shares with the relations before it, whose environment slots are
   [keys]; a match binds its other columns [fresh_cols] into the slots
   [fresh] *)
type step = {
  part : partition;
  kcols : int array array;
  keys : int array;
  fresh_cols : int array array;
  fresh : int array;
}

let join_project ?par rels ~scope =
  match rels with
  | [] -> invalid_arg "Colexec.join_project: no relations"
  | (r0, sel0) :: rest ->
      (* environment slots: every attribute in first-occurrence order *)
      let attrs = Ivec.create () in
      let slot_of a =
        let rec go j =
          if j >= Ivec.length attrs then -1
          else if Ivec.get attrs j = a then j
          else go (j + 1)
        in
        go 0
      in
      let bind r =
        Array.map
          (fun a ->
            match slot_of a with
            | -1 ->
                Ivec.push attrs a;
                Ivec.length attrs - 1
            | j -> j)
          (Qrelation.scope r)
      in
      let first_slots = bind r0 in
      let steps =
        Array.map
          (fun (r, sel) ->
            let columns = List.init (Qrelation.arity r) Fun.id in
            let bound = Array.map slot_of (Qrelation.scope r) in
            let shared =
              Array.of_list (List.filter (fun j -> bound.(j) >= 0) columns)
            and fresh =
              Array.of_list (List.filter (fun j -> bound.(j) < 0) columns)
            in
            let slots = bind r in
            {
              part = partition r shared sel;
              kcols = cols_at r shared;
              keys = Array.map (Array.get slots) shared;
              fresh_cols = cols_at r fresh;
              fresh = Array.map (Array.get slots) fresh;
            })
          (Array.of_list rest)
      in
      let proj =
        Array.map (fun a -> match slot_of a with -1 -> raise Not_found | j -> j) scope
      in
      let dedup = Array.length proj < Ivec.length attrs in
      let n_attrs = Ivec.length attrs and n_steps = Array.length steps in
      (* the bindings a pass makes, estimated: each step multiplies
         them by its rows per occupied bucket.  [work] counts every
         level (the descent's steps); [per_row] is the complete
         bindings per first-relation row, which sizes the dedupe
         table up to [max_capacity] *)
      let n0 = Array.length sel0 in
      let leaves, total =
        Array.fold_left
          (fun (level, total) st ->
            let fanout =
              float_of_int (Array.length st.part.rows)
              /. float_of_int (max 1 st.part.occupied)
            in
            (level *. fanout, total +. (level *. fanout)))
          (float_of_int n0, float_of_int n0)
          steps
      in
      let work = if total >= float_of_int max_int then max_int else int_of_float total in
      let per_row = leaves /. float_of_int (max 1 n0) in
      let capacity rows =
        int_of_float (Float.min (float_of_int max_capacity) (per_row *. float_of_int rows))
      in
      (* one descent per first-relation row, binding each later
         relation's matches in row order: the bindings come in the
         order of the left-deep join *)
      let scan lo hi =
        let out =
          Distinct.create ~dedup
            ~capacity:(capacity (hi - lo))
            (Array.length proj)
        in
        let env = Array.make n_attrs 0 in
        let probes = ref 0 and skips = ref 0 and tuples = ref 0 in
        let rec descend d =
          if d = n_steps then Distinct.add out env proj
          else begin
            let st = steps.(d) in
            let part = st.part in
            let h = hash_at env st.keys in
            let b = bucket_of h part.mask in
            let lo = part.starts.(b) and hi = part.starts.(b + 1) in
            if lo = hi then incr skips
            else begin
              incr probes;
              let last_key = Array.length st.keys - 1 in
              for e = lo to hi - 1 do
                let row = part.rows.(e) in
                if part.hashes.(e) = h && key_eq st.kcols row env st.keys last_key
                then begin
                  incr tuples;
                  for j = 0 to Array.length st.fresh - 1 do
                    env.(st.fresh.(j)) <- st.fresh_cols.(j).(row)
                  done;
                  descend (d + 1)
                end
              done
            end
          end
        in
        let cols0 = Qrelation.columns r0 in
        for s = lo to hi - 1 do
          let row = sel0.(s) in
          for j = 0 to Array.length first_slots - 1 do
            env.(first_slots.(j)) <- cols0.(j).(row)
          done;
          descend 0
        done;
        Obs.Counter.add c_radix_probes !probes;
        Obs.Counter.add c_radix_bucket_skips !skips;
        Obs.Counter.add c_radix_join_tuples !tuples;
        out
      in
      let outs = chunked ~work par n0 scan in
      Array.iteri (fun c o -> if c > 0 then Distinct.merge outs.(0) o) outs;
      Distinct.to_relation outs.(0) ~scope

(* ------------------------------------------------------------------ *)
(* Enumeration index: shared-key -> surviving row ids                  *)
(* ------------------------------------------------------------------ *)

module Index = struct
  (* chained hash over the selection's rows, keyed on [pos]; probes
     compare the actual column values so collisions cannot lie *)
  type t = {
    kcols : int array array;
    mask : int;
    head : int array;
    next : int array;
    rows : int array;
    hashes : int array;
  }

  let build r ~pos ~sel =
    let n = Array.length sel in
    let kcols = cols_at r pos in
    let cols = Qrelation.columns r in
    let nbuckets = directory_size n in
    let mask = nbuckets - 1 in
    let head = Array.make nbuckets (-1) in
    let next = Array.make n (-1) in
    let hashes = Array.make n 0 in
    (* reverse fill so each chain lists selection order ascending *)
    for s = n - 1 downto 0 do
      let h = hash_cols cols pos sel.(s) in
      let b = bucket_of h mask in
      hashes.(s) <- h;
      next.(s) <- head.(b);
      head.(b) <- s
    done;
    { kcols; mask; head; next; rows = sel; hashes }

  let iter t key f =
    let h = hash_vals key in
    let k = Array.length key in
    let b = bucket_of h t.mask in
    if t.head.(b) = -1 then Obs.Counter.incr c_radix_bucket_skips
    else begin
      Obs.Counter.incr c_radix_probes;
      let slot = ref t.head.(b) in
      while !slot <> -1 do
        let s = !slot in
        (if t.hashes.(s) = h then
           let i = t.rows.(s) in
           let rec eq j = j >= k || (t.kcols.(j).(i) = key.(j) && eq (j + 1)) in
           if eq 0 then f i);
        slot := t.next.(s)
      done
    end
end

(* ------------------------------------------------------------------ *)
(* Keyed weight sums (weighted counting without materialisation)       *)
(* ------------------------------------------------------------------ *)

module Keysum = struct
  (* distinct shared keys of a child's surviving rows, each with the
     total weight of the rows carrying it *)
  type t = {
    kcols : int array array;
    mask : int;
    head : int array;
    next : Ivec.t;
    reprs : Ivec.t;  (* slot -> representative row id *)
    sums : Ivec.t;  (* slot -> accumulated weight; mutated in place *)
    hashes : Ivec.t;
  }

  let build r ~pos ~sel ~weights =
    let n = Array.length sel in
    let kcols = cols_at r pos in
    let cols = Qrelation.columns r in
    let k = Array.length pos in
    let nbuckets = directory_size n in
    let mask = nbuckets - 1 in
    let head = Array.make nbuckets (-1) in
    let t =
      {
        kcols;
        mask;
        head;
        next = Ivec.create ();
        reprs = Ivec.create ();
        sums = Ivec.create ();
        hashes = Ivec.create ();
      }
    in
    for s = 0 to n - 1 do
      let i = sel.(s) in
      let h = hash_cols cols pos i in
      let b = bucket_of h mask in
      let slot = ref head.(b) in
      let found = ref (-1) in
      while !found = -1 && !slot <> -1 do
        if
          Ivec.get t.hashes !slot = h
          &&
          let j0 = Ivec.get t.reprs !slot in
          let rec eq j = j >= k || (kcols.(j).(i) = kcols.(j).(j0) && eq (j + 1)) in
          eq 0
        then found := !slot
        else slot := Ivec.get t.next !slot
      done;
      if !found >= 0 then
        Ivec.set t.sums !found (count_add (Ivec.get t.sums !found) weights.(s))
      else begin
        let slot' = Ivec.length t.reprs in
        Ivec.push t.reprs i;
        Ivec.push t.sums weights.(s);
        Ivec.push t.hashes h;
        Ivec.push t.next head.(b);
        head.(b) <- slot'
      end
    done;
    t

  (* sum of the weights of build rows matching [key]; 0 when none *)
  let find t key =
    let h = hash_vals key in
    let k = Array.length key in
    let b = bucket_of h t.mask in
    if t.head.(b) = -1 then begin
      Obs.Counter.incr c_radix_bucket_skips;
      0
    end
    else begin
      Obs.Counter.incr c_radix_probes;
      let slot = ref t.head.(b) in
      let result = ref 0 in
      let continue = ref true in
      while !continue && !slot <> -1 do
        (if Ivec.get t.hashes !slot = h then
           let i = Ivec.get t.reprs !slot in
           let rec eq j = j >= k || (t.kcols.(j).(i) = key.(j) && eq (j + 1)) in
           if eq 0 then begin
             result := Ivec.get t.sums !slot;
             continue := false
           end);
        if !continue then slot := Ivec.get t.next !slot
      done;
      !result
    end
end
