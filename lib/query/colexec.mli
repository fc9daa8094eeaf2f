(** Vector-at-a-time columnar execution kernel: the one join
    implementation, behind both Yannakakis query answering and CSP
    solving (via {!Join_tree}).

    A row-at-a-time join pays, per probed tuple, one boxed [int array]
    key allocation, one structural hash of it, and — after every
    semijoin — a full re-materialisation of the surviving relation.
    This module avoids all of that:

    - {b selection vectors}: a semijoin pass returns the surviving row
      ids of the {e unchanged} base relation ([int array], ascending) —
      no intermediate relation is ever materialised;
    - {b radix partitioning}: the build side is scattered into
      power-of-two hash buckets by counting sort; probes compute one
      integer hash over the key columns, skip empty buckets outright,
      and verify candidates against the actual column values (collision
      -safe, zero allocation per probe);
    - {b late materialisation}: enumeration walks selection vectors
      through chained int-hash {!Index}es and reads output values
      column-wise only when a full solution is emitted.

    Counters: [query.selvec_semijoins], [query.selvec_kept_rows],
    [query.radix_partitions], [query.radix_probes],
    [query.radix_bucket_skips], [query.radix_join_tuples]. *)

(** A selection vector: row ids of a base relation, ascending. *)
type sel = int array

(** [all_rows r] selects every row of [r]. *)
val all_rows : Qrelation.t -> sel

(** Work, in rows scanned, above which a pass forks onto [?par] even
    when no worker domain is running there.  A pass above the 2048-row
    grain and at most [fork_rows] forks only onto a running worker
    ({!Hd_engine.Scheduler.warm}): starting one costs it more than the
    scan saves (docs/PERFORMANCE.md section 15). *)
val fork_rows : int

(** [semijoin ?par ~probe:(a, sa, pa) ~build:(b, sb, pb) ()] is the
    selection of [sa]'s rows whose values at columns [pa] match some
    [sb] row of [b] at columns [pb].  [pa] and [pb] must list the
    shared attributes in the same order.  The build side is
    radix-partitioned once; probing allocates nothing per row.

    With [par] a probe side above {!fork_rows} rows, or above 2048
    rows while a worker is running, is scanned in parallel chunks of
    2048 rows on the scheduler.  Chunk boundaries depend only on the
    probe count, and chunk outputs concatenate in chunk order, so the
    result is byte-identical to the sequential scan at any worker
    count. *)
val semijoin :
  ?par:Hd_engine.Scheduler.t ->
  probe:Qrelation.t * sel * int array ->
  build:Qrelation.t * sel * int array ->
  unit ->
  sel

(** [join_project ?par rels ~scope] is the natural join of [rels]
    projected (with dedup) onto [scope] — bag materialisation.  Joins
    are radix-partitioned hash joins building columnar intermediates;
    the projection dedups through an open chained int-hash, never
    boxing a key.  [par] parallelises the probe and column-gather
    loops exactly as in {!semijoin}, where the column gather's work is
    its cells, rows × output columns (the dedup projection stays
    sequential — its chained hash is order-sensitive).
    @raise Invalid_argument on an empty relation list;
    @raise Not_found when [scope] mentions an attribute absent from
    every relation. *)
val join_project :
  ?par:Hd_engine.Scheduler.t ->
  Qrelation.t list ->
  scope:int array ->
  Qrelation.t

(** Chained int-hash index over a selection, keyed on a column subset:
    the backbone of backtrack-free enumeration over selection
    vectors. *)
module Index : sig
  type t

  (** [build r ~pos ~sel] indexes the rows of [sel] on columns [pos].
      Each chain lists row ids in selection order. *)
  val build : Qrelation.t -> pos:int array -> sel:sel -> t

  (** [iter t key f] calls [f row_id] for every indexed row whose key
      columns equal [key] (length must match [pos]).  Zero allocation;
      callers reuse a scratch key buffer across probes. *)
  val iter : t -> int array -> (int -> unit) -> unit
end

(** Keyed weight aggregation for counting without materialisation:
    distinct shared keys of a child's surviving rows with the summed
    weight of the rows carrying each. *)
module Keysum : sig
  type t

  (** [build r ~pos ~sel ~weights] groups [sel]'s rows by their values
      at [pos]; [weights.(s)] is the weight of the row at selection
      slot [s]. *)
  val build : Qrelation.t -> pos:int array -> sel:sel -> weights:int array -> t

  (** [find t key] is the accumulated weight of the rows keyed [key],
      or [0] when none. *)
  val find : t -> int array -> int
end
