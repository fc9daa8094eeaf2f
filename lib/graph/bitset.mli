(** Fixed-capacity sets of small integers backed by an [int array] bit
    vector.

    All operations assume their integer arguments lie in
    [0 .. capacity - 1]; this is enforced with assertions.  Bitsets are the
    workhorse representation for vertex sets, adjacency rows and
    decomposition bags throughout the library, so the interface favours
    cheap in-place mutation plus explicit {!copy}. *)

type t

(** [create n] is the empty set with capacity [n]. *)
val create : int -> t

(** [capacity s] is the capacity [s] was created with. *)
val capacity : t -> int

(** [full n] is the set [{0, ..., n - 1}] with capacity [n]. *)
val full : int -> t

(** [copy s] is a fresh set with the same elements and capacity as [s]. *)
val copy : t -> t

(** [blit ~src ~dst] overwrites [dst] with the contents of [src].  Both
    sets must have the same capacity. *)
val blit : src:t -> dst:t -> unit

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val clear : t -> unit

(** [cardinal s] is the number of elements of [s] (population count). *)
val cardinal : t -> int

val is_empty : t -> bool

(** [equal a b] holds when [a] and [b] contain the same elements.  The
    sets must have the same capacity. *)
val equal : t -> t -> bool

(** [subset a b] holds when every element of [a] belongs to [b]. *)
val subset : t -> t -> bool

(** [union_into ~src ~dst] adds every element of [src] to [dst]. *)
val union_into : src:t -> dst:t -> unit

(** [diff_into ~src ~dst] removes every element of [src] from [dst]. *)
val diff_into : src:t -> dst:t -> unit

(** [inter_into ~src ~dst] keeps in [dst] only elements also in [src]. *)
val inter_into : src:t -> dst:t -> unit

(** [inter_cardinal a b] is [cardinal (a intersect b)] without
    materialising the intersection. *)
val inter_cardinal : t -> t -> int

(** [iter f s] applies [f] to the elements of [s] in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [next s i] is the smallest element of [s] at or above [i], or [-1]
    when there is none.  [i] may be [capacity s].  A loop
    [v := next s (v + 1)] visits the elements in increasing order
    without allocating, unlike {!iter} with a closure. *)
val next : t -> int -> int

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [elements s] lists the elements of [s] in increasing order. *)
val elements : t -> int list

(** [choose s] is the smallest element of [s].
    @raise Not_found when [s] is empty. *)
val choose : t -> int

(** [exists p s] holds when some element of [s] satisfies [p]. *)
val exists : (int -> bool) -> t -> bool

(** [for_all p s] holds when every element of [s] satisfies [p]. *)
val for_all : (int -> bool) -> t -> bool

(** [fnv_hash s] is an FNV-1a hash of the elements of [s] in increasing
    order — a canonical content hash used to key set-cover memo tables
    on decomposition bags (docs/PERFORMANCE.md) and the hd_server
    decomposition cache (docs/SERVER.md).  Always non-negative. *)
val fnv_hash : t -> int

(** The standard 64-bit FNV-1a offset basis [0xcbf29ce484222325]
    truncated to OCaml's 63-bit native int — the seed of {!fnv_hash},
    exported so derived canonical hashes (hd_server signatures) mix
    from the same basis. *)
val fnv_offset_basis : int

(** [lowest_bit w] is the index of the lowest set bit of the non-zero
    [int] [w], in O(1): the word-level step of {!iter}, for callers
    that keep sets as raw words. *)
val lowest_bit : int -> int

(** [of_list n xs] is the set with capacity [n] containing [xs]. *)
val of_list : int -> int list -> t

val pp : Format.formatter -> t -> unit
