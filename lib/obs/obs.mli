(** Observability for the hypertree library: monotonic counters,
    power-of-two histograms, hierarchical timed spans, and a structured
    JSON run report.

    The module is a process-wide singleton.  Instrumented code creates
    its counters at module-initialisation time

    {[
      let c_expanded = Obs.Counter.make "search.nodes_expanded"
    ]}

    and bumps them on the hot path with {!Counter.incr}.  Recording is
    gated on a single global {e enabled} flag: while disabled (the
    default) every recording entry point returns after one load and one
    branch, so instrumentation can stay in release builds.  Reports are
    serialised with a hand-rolled JSON printer — no dependencies beyond
    [unix].

    The module is domain-safe: counters and histogram cells are
    [Atomic.t] (concurrent increments from hd_parallel worker domains
    are exact), registries are mutex-protected, and each domain keeps
    its own span tree — {!report} merges them by name.  Take reports
    and call {!reset} at quiescent points (no worker domain mid-span);
    see {e docs/PARALLELISM.md}.

    The counter and span naming scheme, the report schema, and the
    overhead characteristics are documented in
    {e docs/OBSERVABILITY.md}. *)

(** {1 Global switch} *)

val enable : unit -> unit
(** [enable ()] turns recording on.  Counters, histograms and spans
    created before enabling are retained (at their current values). *)

val disable : unit -> unit
(** [disable ()] turns recording off.  Values accumulated so far are
    kept and still appear in {!report}. *)


(** {1 JSON}

    A minimal JSON value type with a deterministic pretty-printer and a
    small parser.  The parser exists so that reports can be checked to
    round-trip (and so downstream tools need no JSON dependency); it
    handles standard JSON but is not hardened against adversarial
    input. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list  (** fields in printing order *)

  val to_string : t -> string
  (** [to_string v] pretty-prints [v] as two-space-indented JSON.
      Floats print with six decimals; non-finite floats print as
      [null]. *)

  val to_compact : t -> string
  (** [to_compact v] renders [v] on a single line with no spaces — the
      wire form of line-oriented protocols (hd_server,
      docs/SERVER.md). *)

  exception Parse_error of string

  val parse : string -> t
  (** [parse s] parses one JSON value spanning the whole of [s].
      @raise Parse_error on malformed input. *)

  val parse_opt : string -> t option
  (** [parse_opt s] is [Some (parse s)], or [None] on malformed
      input. *)

  val member : string -> t -> t option
  (** [member key v] is field [key] of the object [v]; [None] when [v]
      is not an object or lacks the field. *)
end

(** {1 Event taps}

    A synchronous process-wide event bus.  Instrumented code {!Tap.emit}s
    named events carrying a JSON payload — the hd_server scheduler
    emits one per job slice — and any number of subscribers observe
    them in emission order.  Taps are {e not} gated on the global
    enabled switch: with no subscribers an emit costs one atomic load,
    so emission points can stay unconditional. *)

module Tap : sig
  type event = {
    seq : int;  (** global emission sequence number *)
    name : string;  (** dotted event name, e.g. ["server.slice"] *)
    data : Json.t;  (** event payload *)
  }

  type subscription

  val subscribe : (event -> unit) -> subscription
  (** [subscribe f] registers [f] for every subsequent {!emit}.  [f]
      runs synchronously on the emitting domain: it must be fast,
      domain-safe, and not raise (exceptions are swallowed). *)

  val unsubscribe : subscription -> unit

  val active : unit -> bool
  (** [active ()] holds while at least one subscriber is registered. *)

  val emit : string -> Json.t -> unit
  (** [emit name data] delivers an event to every subscriber; a no-op
      (one atomic load) when there are none. *)
end

(** {1 Counters} *)

module Counter : sig
  type t
  (** A named, process-wide monotonic counter. *)

  val make : string -> t
  (** [make name] returns {e the} counter registered under [name],
      creating it at 0 on first use.  Calls with the same name return
      the same counter, so modules can share a counter by name.
      Creation is intended for module-initialisation time: every
      counter linked into the program then appears in {!report}, even
      when never incremented. *)

  val incr : t -> unit
  (** [incr c] adds 1 to [c] when recording is enabled; otherwise it is
      a no-op costing one load and one branch. *)

  val add : t -> int -> unit
  (** [add c n] adds [n >= 0] to [c] when recording is enabled.
      @raise Invalid_argument when [n] is negative — counters are
      monotonic. *)

  val value : t -> int
  (** [value c] is the current value (readable whether or not recording
      is enabled). *)

  val name : t -> string

  val all : unit -> t list
  (** All registered counters, in unspecified order. *)
end

(** {1 Histograms} *)

module Histogram : sig
  type t
  (** A named distribution summary of non-negative integer observations:
      count, sum, min, max, and power-of-two buckets (bucket 0 holds
      value 0; bucket [i >= 1] holds [2{^i-1} <= v < 2{^i}]). *)

  val make : string -> t
  (** [make name] returns the histogram registered under [name],
      creating it empty on first use (same sharing rule as
      {!Counter.make}). *)

  val observe : t -> int -> unit
  (** [observe h v] records one observation when recording is enabled;
      otherwise a no-op. *)

  val count : t -> int
  val sum : t -> int
  val mean : t -> float
  (** [mean h] is [0.0] for an empty histogram. *)

  val name : t -> string
  val all : unit -> t list
end

(** {1 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a timed span.  Spans nest: a
    span started while another is running becomes its child, and
    repeated entries into the same [name] under the same parent
    aggregate (call count and total wall-clock seconds) into one node
    of the span tree reported by {!report}.  The span is closed — and
    its time recorded — even when [f] raises.  When recording is
    disabled this is exactly [f ()]. *)

val span_domains : unit -> int
(** [span_domains ()] is the number of live domains that hold a span
    tree of their own.  A domain's tree folds into a shared one when
    the domain ends, so this stays bounded by the domains alive at once
    (a scheduler's slots plus its callers), however many start and end;
    {!report} covers both. *)

(** {1 Reset and reports} *)

val reset : unit -> unit
(** [reset ()] zeroes every counter and histogram and discards the span
    tree.  Registrations survive (the same {!Counter.t} handles keep
    working), so [reset] is the way to delimit measurement windows —
    the benchmark harness calls it between tables.  Do not call it from
    inside an open {!with_span}. *)

val report : unit -> Json.t
(** [report ()] is a snapshot of all counters (sorted by name),
    histograms (sorted by name), and the span tree, as the JSON
    document described in {e docs/OBSERVABILITY.md}
    (schema ["hd_obs/1"]). *)

val report_string : unit -> string
(** [report_string ()] is [Json.to_string (report ())]. *)

val write_report : string -> unit
(** [write_report path] writes {!report_string} to [path], or to
    standard output when [path] is ["-"]. *)
