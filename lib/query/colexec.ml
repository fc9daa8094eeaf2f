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

(* whether a pass over [n] rows, [work] rows' worth of scanning
   (default [n]), forks onto [par] *)
let forks ?work (par : Sched.t option) n =
  let work = Option.value work ~default:n in
  match par with
  | Some s when Sched.size s > 0 && n > grain && (work > fork_rows || Sched.warm s) ->
      Some s
  | _ -> None

(* [chunked par n scan] runs [scan lo hi] over deterministic chunks of
   [0, n) and returns the per-chunk results in chunk order.  Falls back
   to one inline chunk when [par] is absent or sequential, when the
   input is within the grain, or when it is at most [fork_rows] and no
   worker is running. *)
let chunked (par : Sched.t option) n (scan : int -> int -> 'a) : 'a array =
  match forks par n with
  | Some s ->
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
}

let partition r pos sel =
  Obs.Counter.incr c_radix_partitions;
  let n = Array.length sel in
  let cols = Qrelation.columns r in
  let nbuckets = directory_size n in
  let mask = nbuckets - 1 in
  let hs = Array.make n 0 in
  let counts = Array.make (nbuckets + 1) 0 in
  for s = 0 to n - 1 do
    let h = hash_cols cols pos sel.(s) in
    hs.(s) <- h;
    let b = bucket_of h mask in
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
  { mask; starts; rows; hashes }

let[@inline] cols_equal_at (acols : int array array) i (bcols : int array array)
    jb =
  let k = Array.length acols in
  let rec go j = j >= k || (acols.(j).(i) = bcols.(j).(jb) && go (j + 1)) in
  go 0

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
(* Multiway join + projection (bag materialisation)                    *)
(* ------------------------------------------------------------------ *)

(* intermediate join result; columns may alias an input relation's
   storage (never mutated) *)
type mat = { scope : int array; cols : int array array; n : int }

let mat_of_relation r =
  {
    scope = Qrelation.scope r;
    cols = Qrelation.columns r;
    n = Qrelation.cardinality r;
  }

let mat_positions scope attrs =
  Array.map
    (fun a ->
      let k = Array.length scope in
      let rec go j =
        if j >= k then raise Not_found
        else if scope.(j) = a then j
        else go (j + 1)
      in
      go 0)
    attrs

let shared_attrs sa sb =
  Array.of_list
    (List.filter (fun v -> Array.exists (( = ) v) sb) (Array.to_list sa))

let cols_at_mat a pos = Array.map (fun p -> a.cols.(p)) pos

let join_mat ?par a (b : Qrelation.t) =
  let b_scope = Qrelation.scope b in
  let shared = shared_attrs a.scope b_scope in
  let pa = mat_positions a.scope shared in
  let pb = Qrelation.positions b shared in
  let b_priv =
    Array.of_list
      (List.filter
         (fun j -> not (Array.exists (( = ) j) pb))
         (List.init (Array.length b_scope) Fun.id))
  in
  let out_scope =
    Array.append a.scope (Array.map (fun j -> b_scope.(j)) b_priv)
  in
  let ka = Array.length a.scope and kp = Array.length b_priv in
  let part = partition b pb (all_rows b) in
  let acols = cols_at_mat a pa and bcols = cols_at b pb in
  let bp_cols = cols_at b b_priv in
  (* pairs of matching (left row, right row), found radix-wise over
     deterministic probe chunks *)
  let scan lo0 hi0 =
    let li = Ivec.create () and ri = Ivec.create () in
    for i = lo0 to hi0 - 1 do
      let h = hash_cols a.cols pa i in
      let bkt = bucket_of h part.mask in
      let lo = part.starts.(bkt) and hi = part.starts.(bkt + 1) in
      if lo = hi then Obs.Counter.incr c_radix_bucket_skips
      else begin
        Obs.Counter.incr c_radix_probes;
        for e = lo to hi - 1 do
          if part.hashes.(e) = h && cols_equal_at acols i bcols part.rows.(e)
          then begin
            Ivec.push li i;
            Ivec.push ri part.rows.(e)
          end
        done
      end
    done;
    (Ivec.to_array li, Ivec.to_array ri)
  in
  let pairs = chunked par a.n scan in
  let li = Array.concat (Array.to_list (Array.map fst pairs)) in
  let ri = Array.concat (Array.to_list (Array.map snd pairs)) in
  let n = Array.length li in
  Obs.Counter.add c_radix_join_tuples n;
  (* column materialisation: one independent gather per output column *)
  let cols = Array.make (ka + kp) [||] in
  let fill j =
    let col = Array.make n 0 in
    (if j < ka then
       let src = a.cols.(j) in
       for t = 0 to n - 1 do
         col.(t) <- src.(li.(t))
       done
     else
       let src = bp_cols.(j - ka) in
       for t = 0 to n - 1 do
         col.(t) <- src.(ri.(t))
       done);
    cols.(j) <- col
  in
  (match forks par n ~work:(n * (ka + kp)) with
  | Some s when ka + kp > 1 ->
      Sched.run_all s (List.init (ka + kp) (fun j () -> fill j))
  | _ ->
      for j = 0 to ka + kp - 1 do
        fill j
      done);
  { scope = out_scope; cols; n }

(* dedup-project [m] onto [attrs] via an open chained hash over the
   projected values, then freeze as a columnar relation *)
let project_mat m attrs =
  let ps = mat_positions m.scope attrs in
  let pcols = cols_at_mat m ps in
  let k = Array.length ps in
  let nbuckets = directory_size (2 * m.n) in
  let mask = nbuckets - 1 in
  let head = Array.make nbuckets (-1) in
  let next = Ivec.create () and keep = Ivec.create () and khash = Ivec.create () in
  for i = 0 to m.n - 1 do
    let h = hash_cols m.cols ps i in
    let b = bucket_of h mask in
    let slot = ref head.(b) in
    let dup = ref false in
    while (not !dup) && !slot <> -1 do
      if
        Ivec.get khash !slot = h
        &&
        let j0 = Ivec.get keep !slot in
        let rec eq j = j >= k || (pcols.(j).(i) = pcols.(j).(j0) && eq (j + 1)) in
        eq 0
      then dup := true
      else slot := Ivec.get next !slot
    done;
    if not !dup then begin
      let s = Ivec.length keep in
      Ivec.push keep i;
      Ivec.push khash h;
      Ivec.push next head.(b);
      head.(b) <- s
    end
  done;
  let n = Ivec.length keep in
  let cols =
    Array.init k (fun j ->
        let src = pcols.(j) in
        Array.init n (fun t -> src.(Ivec.get keep t)))
  in
  Qrelation.of_columns_unchecked ~scope:(Array.copy attrs) cols ~n

let join_project ?par rels ~scope =
  match rels with
  | [] -> invalid_arg "Colexec.join_project: no relations"
  | r :: rest ->
      let m = List.fold_left (join_mat ?par) (mat_of_relation r) rest in
      project_mat m scope

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
        Ivec.set t.sums !found (Ivec.get t.sums !found + weights.(s))
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
