(* hd_server: canonical signatures, the decomposition cache, the wire
   protocol, the time-sliced job scheduler, and the serve loop.

   The scheduler tests run with [slice = 0.0] — every actual clock read
   inside a solve yields — which makes the park/resume machinery fire
   deterministically instead of depending on wall-clock timing. *)

module Graph = Hd_graph.Graph
module Hypergraph = Hd_hypergraph.Hypergraph
module Hg_format = Hd_hypergraph.Hg_format
module B = Hd_engine.Budget
module S = Hd_engine.Solver
module Obs = Hd_obs.Obs
module J = Obs.Json
module Signature = Hd_server.Signature
module Cache = Hd_server.Cache
module Protocol = Hd_server.Protocol
module Jobs = Hd_server.Jobs
module Server = Hd_server.Server

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let ensure_registry () = Server.ensure_registry ()

(* the 4-cycle of test/corpus_golden/good.hg, and the same instance
   with every vertex renamed and the edges reshuffled *)
let cycle4_a = "e1(a,b), e2(b,c), e3(c,d), e4(d,a)."
let cycle4_b = "p1(w,x), p2(y,z), p3(x,y), p4(z,w)."
let path4 = "e1(a,b), e2(b,c), e3(c,d)."

let hg text = Hg_format.parse_string text
let sig_of text = Signature.of_hypergraph (hg text)

(* --- JSON plumbing ------------------------------------------------- *)

let jget j name =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S in %s" name (J.to_compact j)

let jint j name =
  match jget j name with
  | J.Int i -> i
  | v -> Alcotest.failf "field %S not an int: %s" name (J.to_compact v)

let jstr j name =
  match jget j name with
  | J.String s -> s
  | v -> Alcotest.failf "field %S not a string: %s" name (J.to_compact v)

let jbool j name =
  match jget j name with
  | J.Bool b -> b
  | v -> Alcotest.failf "field %S not a bool: %s" name (J.to_compact v)

(* ------------------------------------------------------------------ *)
(* Signature                                                           *)
(* ------------------------------------------------------------------ *)

let test_signature_invariant_under_relabeling () =
  let sa = sig_of cycle4_a and sb = sig_of cycle4_b in
  check_str "equal canonical keys" (Signature.key sa) (Signature.key sb);
  check_int "equal hashes" (Signature.hash sa) (Signature.hash sb);
  check "hash is 63-bit non-negative" true (Signature.hash sa >= 0)

let test_signature_separates_instances () =
  let sa = sig_of cycle4_a and sp = sig_of path4 in
  check "cycle and path keys differ" true
    (Signature.key sa <> Signature.key sp)

let test_signature_permutations_invert () =
  let s = sig_of cycle4_a in
  let n = Array.length s.Signature.canon_of_orig in
  check_int "square permutation arrays" n
    (Array.length s.Signature.orig_of_canon);
  let ordering = Array.init n (fun i -> n - 1 - i) in
  let roundtrip =
    Signature.of_canonical s (Signature.to_canonical s ordering)
  in
  check "of_canonical inverts to_canonical" true (roundtrip = ordering);
  (* canon_of_orig really is a permutation *)
  let seen = Array.make n false in
  Array.iter (fun c -> seen.(c) <- true) s.Signature.canon_of_orig;
  check "bijective relabeling" true (Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let entry ?ordering outcome =
  {
    Cache.solver = "bb-ghw";
    kind = S.Ghw;
    outcome;
    ordering;
    visited = 1;
    generated = 1;
    elapsed = 0.001;
  }

let test_cache_serves_exact_only () =
  let c = Cache.create ~capacity:8 () in
  let sa = sig_of cycle4_a and sp = sig_of path4 in
  check "empty cache misses" true (Cache.find c ~kind:S.Ghw sa = None);
  Cache.store c ~kind:S.Ghw sa (entry (S.Exact 2));
  (match Cache.find c ~kind:S.Ghw sa with
  | Some e -> check "exact entry served" true (e.Cache.outcome = S.Exact 2)
  | None -> Alcotest.fail "stored exact entry must hit");
  check "other kind is a distinct slot" true
    (Cache.find c ~kind:S.Tw sa = None);
  (* a bounds entry is deliberately a miss, and a later exact solve
     replaces it *)
  Cache.store c ~kind:S.Ghw sp (entry (S.Bounds { lb = 1; ub = 3 }));
  check "bounds entry not served" true (Cache.find c ~kind:S.Ghw sp = None);
  Cache.store c ~kind:S.Ghw sp (entry (S.Exact 1));
  check "exact replaces bounds" true
    (match Cache.find c ~kind:S.Ghw sp with
    | Some e -> e.Cache.outcome = S.Exact 1
    | None -> false);
  (* a worse answer must not clobber a better one *)
  Cache.store c ~kind:S.Ghw sp (entry (S.Bounds { lb = 0; ub = 9 }));
  check "bounds does not clobber exact" true
    (match Cache.find c ~kind:S.Ghw sp with
    | Some e -> e.Cache.outcome = S.Exact 1
    | None -> false);
  check "hits counted" true (Cache.hits c >= 3);
  check "misses counted" true (Cache.misses c >= 3)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  let s1 = sig_of cycle4_a and s2 = sig_of path4 in
  let s3 = sig_of "t1(a,b), t2(b,c), t3(a,c)." in
  Cache.store c ~kind:S.Ghw s1 (entry (S.Exact 2));
  Cache.store c ~kind:S.Ghw s2 (entry (S.Exact 1));
  ignore (Cache.find c ~kind:S.Ghw s1);
  (* s2 is now least recently used; inserting s3 evicts it *)
  Cache.store c ~kind:S.Ghw s3 (entry (S.Exact 1));
  check_int "capacity respected" 2 (Cache.size c);
  check "recently used entry kept" true
    (Cache.find c ~kind:S.Ghw s1 <> None);
  check "LRU entry evicted" true (Cache.find c ~kind:S.Ghw s2 = None)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  (match Protocol.parse {|{"op":"submit","hypergraph":"e(a,b)."}|} with
  | Ok (Protocol.Submit s) ->
      check "inline hypergraph source" true
        (s.Protocol.source = Protocol.Hypergraph_text "e(a,b).");
      check "cache defaults on" true s.Protocol.use_cache;
      check "ordering defaults off" false s.Protocol.with_ordering
  | _ -> Alcotest.fail "well-formed submit must parse");
  (match
     Protocol.parse
       {|{"op":"submit","cq":"ans() :- r(X,Y).","solver":"hw-det-k","time_limit":2,"cache":false}|}
   with
  | Ok (Protocol.Submit s) ->
      check "cq source" true
        (s.Protocol.source = Protocol.Cq_text "ans() :- r(X,Y).");
      check "solver carried" true (s.Protocol.solver = Some "hw-det-k");
      check "int time limit accepted as number" true
        (s.Protocol.time_limit = Some 2.0);
      check "cache off" false s.Protocol.use_cache
  | _ -> Alcotest.fail "cq submit must parse");
  (match Protocol.parse {|{"op":"wait","job":3}|} with
  | Ok (Protocol.Wait { job = 3; timeout }) ->
      check "default timeout" true (timeout = 60.0)
  | _ -> Alcotest.fail "wait must parse");
  let is_error s =
    match Protocol.parse s with Error _ -> true | Ok _ -> false
  in
  check "malformed json rejected" true (is_error "not json");
  (* a located error: the reply names the offset where parsing failed,
     here the end of a submit line cut short before its brace *)
  let truncated = {|{"op":"submit","file":"test/corpus_golden/good.hg"|} in
  (match Protocol.parse truncated with
  | Error msg ->
      let located = Printf.sprintf " at %d" (String.length truncated) in
      check (Printf.sprintf "%S is a JSON error" msg) true
        (String.starts_with ~prefix:"malformed JSON: " msg);
      check (Printf.sprintf "%S ends %S" msg located) true
        (String.ends_with ~suffix:located msg)
  | Ok _ -> Alcotest.fail "truncated submit must not parse");
  check "missing op rejected" true (is_error {|{"job":1}|});
  check "unknown op rejected" true (is_error {|{"op":"frobnicate"}|});
  check "two sources rejected" true
    (is_error {|{"op":"submit","hypergraph":"e(a,b).","file":"x.hg"}|});
  check "sourceless submit rejected" true (is_error {|{"op":"submit"}|});
  check "poll without job rejected" true (is_error {|{"op":"poll"}|});
  check "negative job rejected" true (is_error {|{"op":"poll","job":-1}|})

(* fuzz: byte mutants of submit lines either parse or come back as an
   [Error] to send in the reply; an exception would end the session *)
let prop_protocol_mutants =
  let seeds =
    [
      {|{"op":"submit","file":"test/corpus_golden/good.hg","solver":"bb-ghw","time_limit":1.5,"max_states":400,"seed":7,"ordering":true}|};
      {|{"op":"submit","hypergraph":"e1(a,b),\ne2(b,c).","label":"p\u00e9","cache":false}|};
    ]
  in
  QCheck.Test.make ~count:2000 ~name:"protocol mutants parse or answer an error"
    (Mutants.arbitrary ~grammar:{|{}[]",:\ 0123456789.-+eEtrufalsn|} seeds)
    (fun line -> match Protocol.parse line with Ok _ | Error _ -> true)

let test_protocol_parse_bulk () =
  (match
     Protocol.parse
       {|{"op":"bulk","cqs":["a(X) :- e(X,Y)."],"data":"dir","mode":"answers","limit":5}|}
   with
  | Ok (Protocol.Bulk b) ->
      check_int "one cq" 1 (List.length b.Protocol.cqs);
      check "bare data string is a singleton" true (b.Protocol.data = [ "dir" ]);
      check_str "mode carried" "answers" b.Protocol.mode;
      check "limit carried" true (b.Protocol.answer_limit = Some 5);
      check "cache defaults on" true b.Protocol.bulk_use_cache
  | _ -> Alcotest.fail "well-formed bulk must parse");
  (match Protocol.parse {|{"op":"bulk","cqs":["a(X) :- e(X,Y)."]}|} with
  | Ok (Protocol.Bulk b) ->
      check_str "mode defaults to count" "count" b.Protocol.mode;
      check "data may be absent at parse time" true (b.Protocol.data = [])
  | _ -> Alcotest.fail "dataless bulk parses (server rejects later)");
  let is_error s =
    match Protocol.parse s with Error _ -> true | Ok _ -> false
  in
  check "missing cqs rejected" true (is_error {|{"op":"bulk","data":"d"}|});
  check "empty cqs rejected" true
    (is_error {|{"op":"bulk","cqs":[],"data":"d"}|});
  check "bad mode rejected" true
    (is_error
       {|{"op":"bulk","cqs":["a(X) :- e(X,Y)."],"data":"d","mode":"frobnicate"}|});
  check "non-string cq rejected" true
    (is_error {|{"op":"bulk","cqs":[3],"data":"d"}|})

(* ------------------------------------------------------------------ *)
(* Jobs: slicing, interleaving, cancellation, cache hits               *)
(* ------------------------------------------------------------------ *)

(* a poll-dense instance: the GA checks its budget on every fitness
   evaluation, so a state cap gives a long run with many yields *)
let ga_spec = { B.time_limit = Some 30.0; max_states = Some 1500 }

let grid_hg rows cols = Hypergraph.of_graph (Graph.grid rows cols)

let submit_hg jobs ~solver ~spec ?(use_cache = false) h =
  Jobs.submit jobs ~solver ~spec ~use_cache
    ~signature:(Signature.of_hypergraph h) (S.Hypergraph h)

let terminal (s : Jobs.snapshot) =
  s.Jobs.state = "done" || s.Jobs.state = "cancelled"
  || s.Jobs.state = "failed"

let test_jobs_two_jobs_interleave_on_one_worker () =
  ensure_registry ();
  let solver = Option.get (S.find "ga-ghw") in
  let cache = Cache.create () in
  let jobs = Jobs.create ~workers:1 ~slice:0.0 ~cache () in
  Fun.protect ~finally:(fun () -> Jobs.shutdown jobs) @@ fun () ->
  let trace = Atomic.make [] in
  let sub =
    Obs.Tap.subscribe (fun ev ->
        if ev.Obs.Tap.name = "server.slice" then begin
          let id = jint ev.Obs.Tap.data "job" in
          let rec push () =
            let cur = Atomic.get trace in
            if not (Atomic.compare_and_set trace cur (id :: cur)) then push ()
          in
          push ()
        end)
  in
  let a = submit_hg jobs ~solver ~spec:ga_spec (grid_hg 4 4) in
  let b = submit_hg jobs ~solver ~spec:ga_spec (grid_hg 3 5) in
  let sa = Result.get_ok (Jobs.wait jobs a.Jobs.id ~timeout:60.0) in
  let sb = Result.get_ok (Jobs.wait jobs b.Jobs.id ~timeout:60.0) in
  Obs.Tap.unsubscribe sub;
  check_str "job a done" "done" sa.Jobs.state;
  check_str "job b done" "done" sb.Jobs.state;
  check "job a was sliced" true (sa.Jobs.slices >= 2);
  check "job b was sliced" true (sb.Jobs.slices >= 2);
  (* with one worker and zero-length slices the scheduler must
     round-robin: some slice of b lands between two slices of a *)
  let tr = List.rev (Atomic.get trace) in
  let rec interleaved seen_a = function
    | [] -> false
    | id :: rest ->
        if id = b.Jobs.id && seen_a then List.mem a.Jobs.id rest
        else interleaved (seen_a || id = a.Jobs.id) rest
  in
  check "slices interleave across jobs" true (interleaved false tr);
  (* progress events were delivered to the poll stream too *)
  check "slice events drained by wait/poll" true
    (List.length sa.Jobs.events > 0 || sa.Jobs.slices > 0)

(* a hypergraph far too hard to solve exactly: 40 vertices in a
   connectivity cycle plus 50 pseudorandom triples *)
let hard_instance () =
  let buf = Buffer.create 2048 in
  for v = 0 to 39 do
    Buffer.add_string buf (Printf.sprintf "c%d(v%d,v%d),\n" v v ((v + 1) mod 40))
  done;
  let state = ref 12345 in
  let next m =
    state := (!state * 1103515245) + 12345;
    (!state lsr 16) mod m
  in
  for e = 0 to 49 do
    let a = next 40 in
    let b = (a + 1 + next 38) mod 40 in
    let c = (b + 1 + next 37) mod 40 in
    if a <> b && b <> c && a <> c then
      Buffer.add_string buf (Printf.sprintf "r%d(v%d,v%d,v%d),\n" e a b c)
  done;
  Buffer.add_string buf "tail(v0,v1).";
  hg (Buffer.contents buf)

let test_jobs_cancel_inflight () =
  ensure_registry ();
  let solver = Option.get (S.find "bb-ghw") in
  let cache = Cache.create () in
  let jobs = Jobs.create ~workers:1 ~slice:0.0 ~cache () in
  Fun.protect ~finally:(fun () -> Jobs.shutdown jobs) @@ fun () ->
  let spec = { B.time_limit = None; max_states = None } in
  let s0 =
    submit_hg jobs ~solver ~spec (hard_instance ())
  in
  check_str "starts queued" "queued" s0.Jobs.state;
  (* let it get some slices in, then cancel *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec spin () =
    let s = Result.get_ok (Jobs.poll jobs s0.Jobs.id) in
    if s.Jobs.slices >= 2 || Unix.gettimeofday () > deadline then s
    else begin
      Unix.sleepf 0.002;
      spin ()
    end
  in
  let running = spin () in
  check "got sliced before cancel" true (running.Jobs.slices >= 1);
  ignore (Jobs.cancel jobs s0.Jobs.id);
  let final = Result.get_ok (Jobs.wait jobs s0.Jobs.id ~timeout:30.0) in
  check_str "cancel lands" "cancelled" final.Jobs.state;
  check "terminal" true (terminal final);
  (* the parked continuation was resumed, not dropped: the solver
     returned a result carrying the bounds it had *)
  check "cancelled job still reports a result" true
    (final.Jobs.result <> None)

let test_jobs_cache_hit_on_isomorphic_resubmit () =
  ensure_registry ();
  let solver = Option.get (S.find "bb-ghw") in
  let cache = Cache.create () in
  let jobs = Jobs.create ~workers:2 ~slice:0.01 ~cache () in
  Fun.protect ~finally:(fun () -> Jobs.shutdown jobs) @@ fun () ->
  let spec = { B.time_limit = Some 20.0; max_states = None } in
  let first =
    submit_hg jobs ~solver ~spec ~use_cache:true (hg cycle4_a)
  in
  let s1 = Result.get_ok (Jobs.wait jobs first.Jobs.id ~timeout:30.0) in
  check_str "first solve done" "done" s1.Jobs.state;
  check "first solve not cached" false s1.Jobs.cached;
  let w1 =
    match s1.Jobs.result with
    | Some r -> S.value r.S.outcome
    | None -> Alcotest.fail "finished job must carry a result"
  in
  (* the same instance with renamed vertices and shuffled edges is
     answered from the cache, without running a solver *)
  let second =
    submit_hg jobs ~solver ~spec ~use_cache:true (hg cycle4_b)
  in
  check_str "resubmit already done" "done" second.Jobs.state;
  check "resubmit served from cache" true second.Jobs.cached;
  check_int "resubmit ran no slices" 0 second.Jobs.slices;
  (match second.Jobs.result with
  | Some r ->
      check_int "cached width equals solved width" w1 (S.value r.S.outcome);
      (match r.S.ordering with
      | Some o ->
          let sorted = Array.copy o in
          Array.sort compare sorted;
          check "cached witness remapped to a permutation" true
            (sorted = Array.init (Array.length o) Fun.id)
      | None -> ())
  | None -> Alcotest.fail "cached job must carry a result");
  check "cache counted the hit" true (Cache.hits cache >= 1)

(* a job leaves the runner once its terminal snapshot has been handed
   out; later questions about it are errors naming the id, and a
   cache-served submit is never stored at all *)
let test_jobs_retire_after_terminal_read () =
  ensure_registry ();
  let solver = Option.get (S.find "bb-ghw") in
  let cache = Cache.create () in
  let jobs = Jobs.create ~workers:1 ~slice:0.01 ~cache () in
  Fun.protect ~finally:(fun () -> Jobs.shutdown jobs) @@ fun () ->
  let spec = { B.time_limit = Some 20.0; max_states = None } in
  let retired () = jint (Jobs.stats jobs) "retired" in
  let first = submit_hg jobs ~solver ~spec ~use_cache:true (hg cycle4_a) in
  check_int "nothing retired while in flight" 0 (retired ());
  let done_ = Result.get_ok (Jobs.wait jobs first.Jobs.id ~timeout:30.0) in
  check_str "solve done" "done" done_.Jobs.state;
  check_int "terminal read retires" 1 (retired ());
  let msg = Printf.sprintf "job %d retired" first.Jobs.id in
  let expect_retired what r =
    match r with
    | Error m -> check_str what msg m
    | Ok _ -> Alcotest.fail (what ^ ": retired job still answered")
  in
  expect_retired "poll" (Jobs.poll jobs first.Jobs.id);
  expect_retired "wait" (Jobs.wait jobs first.Jobs.id ~timeout:1.0);
  expect_retired "cancel" (Jobs.cancel jobs first.Jobs.id);
  let hit = submit_hg jobs ~solver ~spec ~use_cache:true (hg cycle4_b) in
  check "resubmit served from cache" true hit.Jobs.cached;
  check_int "cache-served submit retired at once" 2 (retired ());
  check_str "cache-served id retired"
    (Printf.sprintf "job %d retired" hit.Jobs.id)
    (match Jobs.poll jobs hit.Jobs.id with Error m -> m | Ok _ -> "answered");
  check_str "unknown id" "unknown job 99"
    (match Jobs.poll jobs 99 with Error m -> m | Ok _ -> "answered");
  let st = Jobs.stats jobs in
  check_int "submitted" 2 (jint st "submitted");
  check_int "no live job left" 0
    (jint st "queued" + jint st "running" + jint st "done"
   + jint st "cancelled" + jint st "failed")

(* ------------------------------------------------------------------ *)
(* The serve loop, end to end over a pipe pair                         *)
(* ------------------------------------------------------------------ *)

let with_server ~config f =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server_ic = Unix.in_channel_of_descr req_r in
  let server_oc = Unix.out_channel_of_descr resp_w in
  let server =
    Domain.spawn (fun () ->
        let outcome = Server.serve ~config server_ic server_oc in
        close_out_noerr server_oc;
        outcome)
  in
  let to_server = Unix.out_channel_of_descr req_w in
  let send line =
    output_string to_server line;
    output_char to_server '\n';
    flush to_server
  in
  (* replies are read off the descriptor with a deadline, so a request
     that is never answered fails the test instead of hanging it *)
  let pending = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec recv_line () =
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear pending;
        Buffer.add_string pending (String.sub s (i + 1) (String.length s - i - 1));
        String.sub s 0 i
    | None -> (
        match Unix.select [ resp_r ] [] [] 60.0 with
        | [], _, _ -> Alcotest.fail "no reply within 60 s"
        | _ ->
            let k = Unix.read resp_r chunk 0 (Bytes.length chunk) in
            if k = 0 then raise End_of_file;
            Buffer.add_subbytes pending chunk 0 k;
            recv_line ())
  in
  let recv () = J.parse (recv_line ()) in
  let result = f send recv in
  close_out_noerr to_server;
  let outcome = Domain.join server in
  Unix.close resp_r;
  (result, outcome)

let test_serve_transcript () =
  Obs.enable ();
  let config =
    {
      Server.default_config with
      Server.workers = 2;
      slice = 0.01;
      default_time_limit = Some 20.0;
    }
  in
  let hits_before =
    Obs.Counter.value (Obs.Counter.make "server.cache_hits")
  in
  let (), outcome =
    with_server ~config (fun send recv ->
        (* submit, then wait for the result *)
        send
          (Printf.sprintf
             {|{"op":"submit","hypergraph":"%s","solver":"bb-ghw","ordering":true}|}
             cycle4_a);
        let r1 = recv () in
        check "submit ok" true (jbool r1 "ok");
        let job1 = jint r1 "job" in
        send (Printf.sprintf {|{"op":"wait","job":%d,"timeout":30}|} job1);
        let r2 = recv () in
        check_str "first solve done" "done" (jstr r2 "state");
        check "first solve not cached" false (jbool r2 "cached");
        let res1 = jget r2 "result" in
        check_str "exact outcome" "exact" (jstr res1 "outcome");
        let width1 = jint res1 "width" in
        check_int "4-cycle ghw" 2 width1;
        check_str "solver echoed" "bb-ghw" (jstr res1 "solver");
        (* protocol errors do not kill the session *)
        send "this is not json";
        let e1 = recv () in
        check "protocol error flagged" false (jbool e1 "ok");
        send {|{"op":"poll","job":999}|};
        let e2 = recv () in
        check "unknown job flagged" false (jbool e2 "ok");
        (* the wait above handed out job1's terminal snapshot *)
        send (Printf.sprintf {|{"op":"poll","job":%d}|} job1);
        let e3 = recv () in
        check "retired job flagged" false (jbool e3 "ok");
        check_str "retired job named" (Printf.sprintf "job %d retired" job1)
          (jstr e3 "error");
        (* resubmit the renamed instance: answered from the cache *)
        send
          (Printf.sprintf
             {|{"op":"submit","hypergraph":"%s","solver":"bb-ghw","ordering":true}|}
             cycle4_b);
        let r3 = recv () in
        check "resubmit ok" true (jbool r3 "ok");
        check_str "resubmit already done" "done" (jstr r3 "state");
        check "resubmit cached" true (jbool r3 "cached");
        let res2 = jget r3 "result" in
        check_int "cached width matches" width1 (jint res2 "width");
        (match jget res2 "ordering" with
        | J.List l -> check_int "witness covers the instance" 4 (List.length l)
        | _ -> Alcotest.fail "cached result must carry the ordering");
        (* stats reflect the hit *)
        send {|{"op":"stats"}|};
        let st = recv () in
        let cache = jget st "cache" in
        check "stats: cache hit recorded" true (jint cache "hits" >= 1);
        check_int "stats: both jobs retired" 2
          (jint (jget st "jobs") "retired");
        let counters = jget st "counters" in
        check "stats: server.cache_hits counter" true
          (jint counters "server.cache_hits" > hits_before);
        check "stats: slices counted" true
          (jint counters "server.slices" >= 1);
        (* clean shutdown *)
        send {|{"op":"shutdown"}|};
        let bye = recv () in
        check "shutdown acknowledged" true (jbool bye "ok"))
  in
  check "serve returned Shutdown" true (outcome = `Shutdown)

(* the parallel registry entries are served like any other: the
   [solvers] reply lists them, and a submit naming one runs its lone
   worker (or island) inline under the job's slices to a witness no
   wider than its upper bound *)
let test_serve_parallel_solvers () =
  let config =
    {
      Server.default_config with
      Server.workers = 2;
      slice = 0.01;
      default_time_limit = Some 20.0;
    }
  in
  let text = Hg_format.to_string (grid_hg 3 4) in
  let h = hg text in
  let eval = Hd_core.Eval.of_hypergraph h in
  let (), outcome =
    with_server ~config (fun send recv ->
        send {|{"op":"solvers"}|};
        let names =
          match jget (recv ()) "solvers" with
          | J.List l -> List.map (fun s -> jstr s "name") l
          | v -> Alcotest.failf "solvers not a list: %s" (J.to_compact v)
        in
        List.iter
          (fun name ->
            check (name ^ " listed") true (List.mem name names);
            send
              (J.to_compact
                 (J.Obj
                    [
                      ("op", J.String "submit");
                      ("hypergraph", J.String text);
                      ("solver", J.String name);
                      ("max_states", J.Int 2000);
                      ("cache", J.Bool false);
                      ("ordering", J.Bool true);
                    ]));
            let r = recv () in
            check (name ^ " submit ok") true (jbool r "ok");
            send
              (Printf.sprintf {|{"op":"wait","job":%d,"timeout":30}|}
                 (jint r "job"));
            let w = recv () in
            check_str (name ^ " done") "done" (jstr w "state");
            let res = jget w "result" in
            check_str (name ^ " echoed") name (jstr res "solver");
            match jget res "ordering" with
            | J.List l ->
                let sigma =
                  Array.of_list
                    (List.map
                       (function
                         | J.Int v -> v
                         | v -> Alcotest.failf "vertex %s" (J.to_compact v))
                       l)
                in
                check (name ^ " witness width <= ub") true
                  (Hd_core.Eval.ghw_width_exact eval sigma <= jint res "ub")
            | v -> Alcotest.failf "no witness ordering: %s" (J.to_compact v))
          [ "astar-ghw-par"; "saiga-ghw-par" ];
        send {|{"op":"shutdown"}|};
        ignore (recv ()))
  in
  check "serve returned Shutdown" true (outcome = `Shutdown)

(* the bulk op end to end: N isomorphic cyclic queries over one CSV
   instance share exactly one decomposition through the cache, and the
   answer counts match the in-process brute-force oracle *)
let test_serve_bulk () =
  ensure_registry ();
  let dir = Filename.temp_file "hd_bulk_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun entry -> Sys.remove (Filename.concat dir entry))
        (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let oc = open_out (Filename.concat dir "e.csv") in
  output_string oc "a,b\nb,c\nc,a\nb,d\nd,e\ne,b\nc,d\nd,a\n";
  close_out oc;
  (* 16 values: a product of 16 unary atoms counts 2^64 *)
  let oc = open_out (Filename.concat dir "u.csv") in
  for i = 0 to 15 do
    Printf.fprintf oc "%d\n" i
  done;
  close_out oc;
  (* expected counts from the brute-force oracle *)
  let db = Hd_query.Db.create () in
  Hd_query.Db.load_dir db dir;
  let tri_n =
    Hd_query.Brute_force.count db
      (Hd_query.Cq.parse_string "t(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).")
  in
  let hop_n =
    Hd_query.Brute_force.count db
      (Hd_query.Cq.parse_string "h(X,Z) :- e(X,Y), e(Y,Z).")
  in
  Obs.enable ();
  let value name = Obs.Counter.value (Obs.Counter.make name) in
  let decomp0 = value "server.bulk_decompositions" in
  let cached0 = value "server.bulk_cached_decompositions" in
  let config =
    {
      Server.default_config with
      Server.workers = 2;
      slice = 0.01;
      default_time_limit = Some 20.0;
    }
  in
  let (), outcome =
    with_server ~config (fun send recv ->
        (* a bulk without data is an error, not a dead session *)
        send {|{"op":"bulk","cqs":["t(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X)."]}|};
        check "dataless bulk flagged" false (jbool (recv ()) "ok");
        (* three isomorphic triangles (renamed variables) + one
           acyclic two-hop, one request *)
        send
          (Printf.sprintf
             {|{"op":"bulk","cqs":["t1(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).","t2(A,B,C) :- e(A,B), e(B,C), e(C,A).","t3(P,Q,R) :- e(P,Q), e(Q,R), e(R,P).","h(X,Z) :- e(X,Y), e(Y,Z)."],"data":"%s","mode":"count"}|}
             dir);
        let r = recv () in
        check "bulk ok" true (jbool r "ok");
        check_int "four queries answered" 4 (jint r "n");
        (* the acceptance criterion: one decomposition for the whole
           isomorphism class, the rest served from the cache *)
        check_int "exactly one decomposition" 1 (jint r "decompositions");
        check_int "two cache hits" 2 (jint r "cache_hits");
        (match jget r "queries" with
        | J.List qs ->
            check_int "per-query entries" 4 (List.length qs);
            List.iteri
              (fun i q ->
                check_int "query index echoed" i (jint q "query");
                if i < 3 then begin
                  check_int "triangle count" tri_n (jint q "count");
                  check_str "ghd plan" "ghd" (jstr q "plan");
                  check "cached iff not first of its class" true
                    (jbool q "cached" = (i > 0))
                end
                else begin
                  check_int "two-hop count" hop_n (jint q "count");
                  check_str "acyclic plan" "acyclic" (jstr q "plan")
                end)
              qs
        | _ -> Alcotest.fail "queries must be a list");
        (* a count past max_int answers an error, not a wrapped number *)
        let vars = List.init 16 (Printf.sprintf "X%d") in
        send
          (Printf.sprintf
             {|{"op":"bulk","cqs":["p(%s) :- %s."],"data":"%s","mode":"count"}|}
             (String.concat "," vars)
             (String.concat ", " (List.map (Printf.sprintf "u(%s)") vars))
             dir);
        let r = recv () in
        check "overflowing count refused" false (jbool r "ok");
        let msg = jstr r "error" in
        check "error names the overflow" true
          (String.length msg >= 14 && String.sub msg 0 14 = "count overflow");
        (* the stats counters attribute the sharing *)
        send {|{"op":"stats"}|};
        let st = recv () in
        let counters = jget st "counters" in
        check "bulk requests counted" true
          (jint counters "server.bulk_requests" >= 1);
        check_int "one bulk decomposition" (decomp0 + 1)
          (jint counters "server.bulk_decompositions");
        check_int "two bulk cached decompositions" (cached0 + 2)
          (jint counters "server.bulk_cached_decompositions");
        check "server cache hits recorded" true
          (jint counters "server.cache_hits" >= 2);
        send {|{"op":"shutdown"}|};
        check "shutdown acknowledged" true (jbool (recv ()) "ok"))
  in
  check "serve returned Shutdown" true (outcome = `Shutdown)

(* the serve loop under fuzz (a fixed seed): 600 byte mutants of
   request lines (test/mutants) and a valid submit every 20 lines, so
   the job scheduler's worker starts and ends along the way.  Every
   non-blank line gets exactly one JSON reply, and stats answers after
   the last one.  Blank lines are not requests and get none. *)
let test_serve_mutants () =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let config =
    {
      Server.default_config with
      Server.workers = 1;
      slice = 0.01;
      default_time_limit = Some 2.0;
      default_max_states = Some 400;
    }
  in
  let submit =
    Printf.sprintf {|{"op":"submit","hypergraph":"%s","solver":"bb-ghw","cache":false}|} cycle4_a
  in
  let seeds =
    [
      submit;
      {|{"op":"submit","file":"test/corpus_golden/good.hg","solver":"bb-ghw","max_states":400,"ordering":true}|};
      {|{"op":"submit","hypergraph":"e1(a,b),\ne2(b,c).","label":"p\u00e9","cache":false}|};
      {|{"op":"poll","job":0}|};
      {|{"op":"cancel","job":1}|};
      {|{"op":"stats"}|};
      {|{"op":"solvers"}|};
    ]
  in
  let mutants =
    QCheck.Gen.generate ~rand:(Random.State.make [| 11 |]) ~n:600
      (Mutants.gen ~grammar:{|{}[]",:\ 0123456789.-+eEtrufalsnop|} seeds)
    |> List.map (String.map (function '\n' -> ' ' | c -> c))
    |> List.filter (fun l -> String.trim l <> "")
  in
  let lines = List.concat (List.mapi (fun i l -> if i mod 20 = 0 then [ submit; l ] else [ l ]) mutants) in
  let (), _ =
    with_server ~config (fun send recv ->
        List.iteri
          (fun i line ->
            send line;
            match recv () with
            | J.Obj fields when List.mem_assoc "ok" fields -> ()
            | _ -> Alcotest.failf "line %d: reply without \"ok\"" i)
          lines;
        send {|{"op":"stats"}|};
        let st = recv () in
        check "stats answers after the fuzz" true (jbool st "ok");
        ignore (jget st "jobs"))
  in
  check "the worker started and ended between jobs" true
    (Obs.Counter.value (Obs.Counter.make "parallel.worker_starts") >= 2)

let test_serve_eof_closes () =
  let config = { Server.default_config with Server.workers = 1 } in
  let (), outcome = with_server ~config (fun _send _recv -> ()) in
  check "serve returned Eof on closed stream" true (outcome = `Eof)

let () =
  Alcotest.run "hd_server"
    [
      ( "signature",
        [
          Alcotest.test_case "invariant under relabeling" `Quick
            test_signature_invariant_under_relabeling;
          Alcotest.test_case "separates instances" `Quick
            test_signature_separates_instances;
          Alcotest.test_case "permutations invert" `Quick
            test_signature_permutations_invert;
        ] );
      ( "cache",
        [
          Alcotest.test_case "serves exact only" `Quick
            test_cache_serves_exact_only;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "parse bulk" `Quick test_protocol_parse_bulk;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 6 |]) prop_protocol_mutants;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "two jobs interleave on one worker" `Slow
            test_jobs_two_jobs_interleave_on_one_worker;
          Alcotest.test_case "cancel in flight" `Slow
            test_jobs_cancel_inflight;
          Alcotest.test_case "cache hit on isomorphic resubmit" `Slow
            test_jobs_cache_hit_on_isomorphic_resubmit;
          Alcotest.test_case "retire after terminal read" `Slow
            test_jobs_retire_after_terminal_read;
        ] );
      ( "serve",
        [
          Alcotest.test_case "transcript" `Slow test_serve_transcript;
          Alcotest.test_case "bulk transcript" `Slow test_serve_bulk;
          Alcotest.test_case "parallel solvers" `Slow
            test_serve_parallel_solvers;
          Alcotest.test_case "eof" `Quick test_serve_eof_closes;
          Alcotest.test_case "mutated request lines" `Slow test_serve_mutants;
        ] );
    ]
