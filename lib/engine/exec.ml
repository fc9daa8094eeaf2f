type runner = { run_all : (unit -> unit) list -> unit }

let hook : runner option Atomic.t = Atomic.make None
let install r = Atomic.set hook (Some r)
let current () = Atomic.get hook

let with_runner r f =
  let prev = Atomic.get hook in
  Atomic.set hook (Some r);
  Fun.protect ~finally:(fun () -> Atomic.set hook prev) f
