(** Decomposition-as-a-service: the hd_server session loop.

    [serve] reads line-JSON requests ({!Protocol}) from an input
    channel and answers each with one line on the output channel,
    running solves asynchronously on a {!Jobs} scheduler so the
    connection stays responsive while solves are in flight — submit
    returns immediately with a job id, poll/wait/cancel manage it,
    repeat submissions of isomorphic-modulo-ordering instances are
    answered from the {!Cache}.  The ["bulk"] op answers N conjunctive
    queries over one relational instance in a single request: one
    decomposition per isomorphism class of cyclic query structure
    (resolved through the cache), every query evaluated by the
    columnar Yannakakis engine.  See docs/SERVER.md for the protocol
    reference and worked transcripts.

    The loop is single-connection by design (stdin/stdout of the
    [hd_server] binary, or a pipe pair in tests); concurrency lives in
    the scheduler, not the transport.  Counters: [server.requests],
    [server.protocol_errors] — enable {!Hd_obs.Obs} recording (the
    binary's default) to collect them. *)

type config = {
  workers : int;  (** scheduler worker domains *)
  slice : float;  (** seconds of compute per job slice *)
  cache_capacity : int;
  default_solver : string;  (** used when a submit names none *)
  default_time_limit : float option;
      (** compute-seconds budget for submits that set none; [None]
          means unlimited — with many queued jobs, prefer a limit *)
  default_max_states : int option;
}

val default_config : config
(** 2 workers, 50ms slices, 1024 cache slots, solver ["bb-ghw"], 30s
    default time limit, no state cap. *)

val ensure_registry : unit -> unit
(** {!Hd_parallel.Registry.ensure}: fill the solver table with every
    solver — [serve] calls it; exposed for tests and embedders. *)

type outcome = [ `Eof | `Shutdown ]

val serve : ?config:config -> in_channel -> out_channel -> outcome
(** [serve ic oc] runs the session until the client sends
    [{"op":"shutdown"}] ([`Shutdown]) or closes the stream ([`Eof]),
    then cancels and drains outstanding jobs and shuts the scheduler
    down (also on exceptions). *)
