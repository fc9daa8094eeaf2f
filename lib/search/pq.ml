type 'a t = {
  compare : 'a -> 'a -> int;
  dummy : 'a;
  mutable data : 'a array;
  mutable size : int;
}

let create ~compare ~dummy = { compare; dummy; data = [||]; size = 0 }

let is_empty q = q.size = 0
let size q = q.size

let swap q i j =
  let t = q.data.(i) in
  q.data.(i) <- q.data.(j);
  q.data.(j) <- t

let rec sift_up q i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if q.compare q.data.(i) q.data.(p) < 0 then begin
      swap q i p;
      sift_up q p
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && q.compare q.data.(l) q.data.(!smallest) < 0 then smallest := l;
  if r < q.size && q.compare q.data.(r) q.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push q x =
  if q.size >= Array.length q.data then begin
    (* grow with the dummy so spare slots never keep a real element
       reachable *)
    let grown = Array.make (max 16 (2 * Array.length q.data)) q.dummy in
    Array.blit q.data 0 grown 0 q.size;
    q.data <- grown
  end;
  q.data.(q.size) <- x;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop q =
  if q.size = 0 then raise Not_found;
  let top = q.data.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.data.(0) <- q.data.(q.size);
    sift_down q 0
  end;
  (* clear the vacated slot: A* states keep their whole elimination
     path alive, so a stale reference here pins dead memory *)
  q.data.(q.size) <- q.dummy;
  top

let peek q = if q.size = 0 then raise Not_found else q.data.(0)
