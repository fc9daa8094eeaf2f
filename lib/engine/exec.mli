(** Dependency-inversion hook for parallel fork/join.

    [lib/engine] cannot depend on the scheduler (hd_parallel depends
    on hd_engine, not the other way around), so the engine publishes a
    tiny runner interface here and the scheduler installs itself into
    it at startup.  {!Blocks.solve} forks its per-block solves through
    the installed runner; with no runner installed — the [-j1]
    configuration — {!Blocks.solve} runs the blocks in index order on
    the calling domain. *)

type runner = {
  run_all : (unit -> unit) list -> unit;
      (** Run every closure to completion before returning; exceptions
          re-raised after all closures have finished. *)
}

val install : runner -> unit
(** Make [runner] the process-wide fork/join implementation. *)

val current : unit -> runner option
(** The installed runner, if any. *)

val with_runner : runner -> (unit -> 'a) -> 'a
(** [with_runner r f] installs [r] for the duration of [f], restoring
    the previous state after — used by tests and the bench harness to
    compare sequential and parallel runs in one process. *)
