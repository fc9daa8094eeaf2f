(* Observability: counters, histograms, hierarchical timed spans, and a
   structured JSON run report.

   Design constraints (docs/OBSERVABILITY.md, docs/PARALLELISM.md):
   - near-zero overhead when disabled: every recording entry point
     checks the [enabled] flag before doing any work, so a disabled
     counter increment costs one load and one branch;
   - domain-safe: counters and histogram cells are [Atomic.t], so
     concurrent increments from the hd_parallel worker domains are
     never lost; registries are mutex-protected; span trees are
     per-domain (Domain.DLS) and merged by name at report time;
   - no dependencies beyond unix (wall-clock); the JSON printer and the
     minimal parser are hand-rolled;
   - instruments register at module-initialisation time, so every
     counter linked into a program appears in the report even at 0. *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

(* one lock for every registry: registration and report generation are
   cold paths, contention is irrelevant there *)
let registry_mutex = Mutex.create ()
let locked f = Mutex.protect registry_mutex f

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* fixed six-decimal precision: small enough magnitudes (span times,
     histogram means) re-parse to a float that prints identically, so
     print/parse round-trips are stable *)
  let float_literal f =
    if Float.is_finite f then Printf.sprintf "%.6f" f else "null"

  let rec write buf ~level t =
    let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_literal f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (level + 1);
            write buf ~level:(level + 1) item)
          items;
        Buffer.add_char buf '\n';
        pad level;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (level + 1);
            escape buf k;
            Buffer.add_string buf ": ";
            write buf ~level:(level + 1) v)
          fields;
        Buffer.add_char buf '\n';
        pad level;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 1024 in
    write buf ~level:0 t;
    Buffer.contents buf

  (* single-line rendering for line-oriented protocols (hd_server) *)
  let rec write_compact buf t =
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_literal f)
    | String s -> escape buf s
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            write_compact buf item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            write_compact buf v)
          fields;
        Buffer.add_char buf '}'

  let to_compact t =
    let buf = Buffer.create 256 in
    write_compact buf t;
    Buffer.contents buf

  exception Parse_error of string

  (* A minimal recursive-descent parser, sufficient for the reports this
     module prints (and standard JSON in general).  Used by the tests to
     check that reports round-trip; not a hardened general parser. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
            | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
            | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
            | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
            | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
            | Some ('"' | '\\' | '/') ->
                Buffer.add_char buf (Option.get (peek ()));
                advance ();
                go ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape"
                in
                (* the printer only emits \u00XX for control bytes *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_char buf '?';
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_number_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_number_char c | None -> false) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text
      then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> String (parse_string ())
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let items = ref [ parse_value () ] in
            skip_ws ();
            while peek () = Some ',' do
              advance ();
              items := parse_value () :: !items;
              skip_ws ()
            done;
            expect ']';
            List (List.rev !items)
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let fields = ref [ field () ] in
            skip_ws ();
            while peek () = Some ',' do
              advance ();
              fields := field () :: !fields;
              skip_ws ()
            done;
            expect '}';
            Obj (List.rev !fields)
          end
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v

  let parse_opt s = try Some (parse s) with Parse_error _ -> None

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Event taps                                                          *)
(* ------------------------------------------------------------------ *)

(* A tiny synchronous event bus: instrumented code emits named events
   (the hd_server scheduler emits one per job slice), subscribers see
   them in emission order with a global sequence number.  The
   subscriber list is an immutable list in an Atomic — emit takes no
   lock and calls the callbacks directly on the emitting domain, so
   callbacks must be fast, domain-safe, and must not raise (exceptions
   are swallowed).  Unlike counters, taps are NOT gated on [enabled]:
   progress streaming works without --stats; with no subscribers an
   emit is one atomic load. *)
module Tap = struct
  type event = { seq : int; name : string; data : Json.t }
  type subscription = int

  let subscribers : (int * (event -> unit)) list Atomic.t = Atomic.make []
  let next_subscription = Atomic.make 0
  let next_seq = Atomic.make 0

  let rec update f =
    let cur = Atomic.get subscribers in
    if not (Atomic.compare_and_set subscribers cur (f cur)) then update f

  let subscribe f =
    let id = Atomic.fetch_and_add next_subscription 1 in
    update (fun l -> (id, f) :: l);
    id

  let unsubscribe id = update (List.filter (fun (i, _) -> i <> id))
  let active () = Atomic.get subscribers <> []

  let emit name data =
    match Atomic.get subscribers with
    | [] -> ()
    | subs ->
        let seq = Atomic.fetch_and_add next_seq 1 in
        let e = { seq; name; data } in
        List.iter (fun (_, f) -> try f e with _ -> ()) subs
end

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { name : string; value : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64

  let make name =
    locked @@ fun () ->
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = { name; value = Atomic.make 0 } in
        Hashtbl.add registry name c;
        c

  (* fetch_and_add keeps concurrent increments from worker domains
     exact; disabled cost stays one load and one branch *)
  let incr c = if Atomic.get enabled then ignore (Atomic.fetch_and_add c.value 1)

  let add c n =
    if n < 0 then invalid_arg "Obs.Counter.add: counters are monotonic";
    if Atomic.get enabled then ignore (Atomic.fetch_and_add c.value n)

  let value c = Atomic.get c.value
  let name c = c.name
  let all () = locked (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) registry [])
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* power-of-two buckets: bucket 0 holds value 0, bucket i >= 1 holds
     values v with 2^(i-1) <= v < 2^i, the last bucket everything
     larger.  Enough resolution to see join-size blowups without
     per-value storage. *)
  let n_buckets = 32

  type t = {
    name : string;
    count : int Atomic.t;
    sum : int Atomic.t;
    min_value : int Atomic.t;
    max_value : int Atomic.t;
    buckets : int Atomic.t array;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let make name =
    locked @@ fun () ->
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
        let h =
          {
            name;
            count = Atomic.make 0;
            sum = Atomic.make 0;
            min_value = Atomic.make max_int;
            max_value = Atomic.make min_int;
            buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
          }
        in
        Hashtbl.add registry name h;
        h

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      min (n_buckets - 1) (bits 0 v)
    end

  (* monotone CAS: keep retrying while our value still improves on the
     published one *)
  let rec atomic_min cell v =
    let cur = Atomic.get cell in
    if v < cur && not (Atomic.compare_and_set cell cur v) then atomic_min cell v

  let rec atomic_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

  let observe h v =
    if Atomic.get enabled then begin
      ignore (Atomic.fetch_and_add h.count 1);
      ignore (Atomic.fetch_and_add h.sum v);
      atomic_min h.min_value v;
      atomic_max h.max_value v;
      let b = bucket_of v in
      ignore (Atomic.fetch_and_add h.buckets.(b) 1)
    end

  let count h = Atomic.get h.count
  let sum h = Atomic.get h.sum

  let mean h =
    let c = count h in
    if c = 0 then 0.0 else float_of_int (sum h) /. float_of_int c

  let name h = h.name
  let all () = locked (fun () -> Hashtbl.fold (fun _ h acc -> h :: acc) registry [])

  let reset h =
    Atomic.set h.count 0;
    Atomic.set h.sum 0;
    Atomic.set h.min_value max_int;
    Atomic.set h.max_value min_int;
    Array.iter (fun b -> Atomic.set b 0) h.buckets
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type node = {
    name : string;
    mutable calls : int;
    mutable seconds : float;
    mutable children : node list; (* reverse creation order *)
  }

  let fresh_root () = { name = "root"; calls = 0; seconds = 0.0; children = [] }

  (* Spans are strictly nested within one domain, so each domain owns a
     private tree and stack (no synchronisation on the hot path); the
     trees of the live domains, and the one tree the ended domains
     folded theirs into, are merged by name when a report is taken. *)
  type ctx = { root : node; mutable stack : node list }

  let current ctx = match ctx.stack with node :: _ -> node | [] -> ctx.root

  let find_child parent name =
    match List.find_opt (fun n -> n.name = name) parent.children with
    | Some n -> n
    | None ->
        let n = { name; calls = 0; seconds = 0.0; children = [] } in
        parent.children <- n :: parent.children;
        n

  (* Merge same-named nodes level by level, preserving first-creation
     order.  Input forests are in creation order; the result is too.
     Reports taken while worker domains are mid-span may observe a
     torn calls/seconds pair for the spans still open there — take
     reports at quiescent points (the portfolio does). *)
  let rec merge_forests (forests : node list list) : node list =
    let tbl : (string, node * node list list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let order = ref [] in
    List.iter
      (fun forest ->
        List.iter
          (fun n ->
            let merged, kids =
              match Hashtbl.find_opt tbl n.name with
              | Some e -> e
              | None ->
                  let e =
                    ({ name = n.name; calls = 0; seconds = 0.0; children = [] },
                     ref [])
                  in
                  Hashtbl.add tbl n.name e;
                  order := fst e :: !order;
                  e
            in
            merged.calls <- merged.calls + n.calls;
            merged.seconds <- merged.seconds +. n.seconds;
            kids := List.rev n.children :: !kids)
          forest)
      forests;
    let out = List.rev !order in
    List.iter
      (fun m ->
        let _, kids = Hashtbl.find tbl m.name in
        (* store reverse creation order, the invariant span_json expects *)
        m.children <- List.rev (merge_forests (List.rev !kids)))
      out;
    out

  (* the live domains' contexts, newest first *)
  let contexts : ctx list ref = ref []

  (* the merged forest, in creation order, of every domain that has
     ended: a domain folds its tree in here as it exits, so [contexts]
     stays bounded by the domains alive at once however many come and
     go.  Each fold builds fresh nodes, so a report that took the
     forest under the lock merges it unchanged outside. *)
  let retired : node list ref = ref []

  let retire ctx =
    locked @@ fun () ->
    contexts := List.filter (fun c -> c != ctx) !contexts;
    retired := merge_forests [ !retired; List.rev ctx.root.children ]

  let key =
    Domain.DLS.new_key (fun () ->
        let ctx = { root = fresh_root (); stack = [] } in
        locked (fun () -> contexts := ctx :: !contexts);
        Domain.at_exit (fun () -> retire ctx);
        ctx)

  let context () = Domain.DLS.get key

  let merged () =
    let ctxs, gone = locked (fun () -> (!contexts, !retired)) in
    merge_forests (List.rev_map (fun c -> List.rev c.root.children) ctxs @ [ gone ])
end

let with_span name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let ctx = Span.context () in
    let node = Span.find_child (Span.current ctx) name in
    ctx.Span.stack <- node :: ctx.Span.stack;
    let started = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        node.Span.calls <- node.Span.calls + 1;
        node.Span.seconds <-
          node.Span.seconds +. (Unix.gettimeofday () -. started);
        match ctx.Span.stack with
        | _ :: rest -> ctx.Span.stack <- rest
        | [] -> ())
      f
  end

(* ------------------------------------------------------------------ *)
(* Reset and report                                                    *)
(* ------------------------------------------------------------------ *)

let reset () =
  locked @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c.Counter.value 0) Counter.registry;
  Hashtbl.iter (fun _ h -> Histogram.reset h) Histogram.registry;
  List.iter
    (fun ctx ->
      ctx.Span.root.Span.children <- [];
      ctx.Span.root.Span.calls <- 0;
      ctx.Span.root.Span.seconds <- 0.0;
      ctx.Span.stack <- [])
    !Span.contexts;
  Span.retired := []

let span_domains () = locked (fun () -> List.length !Span.contexts)

let sorted_names to_name xs =
  List.sort (fun a b -> compare (to_name a) (to_name b)) xs

let histogram_json (h : Histogram.t) =
  let open Json in
  let count = Histogram.count h in
  let bucket i = Atomic.get h.Histogram.buckets.(i) in
  Obj
    [
      ("count", Int count);
      ("sum", Int (Histogram.sum h));
      ("min", if count = 0 then Null else Int (Atomic.get h.Histogram.min_value));
      ("max", if count = 0 then Null else Int (Atomic.get h.Histogram.max_value));
      ("mean", Float (Histogram.mean h));
      ( "pow2_buckets",
        (* trailing empty buckets elided to keep reports short *)
        let last =
          let rec go i = if i < 0 then -1 else if bucket i > 0 then i else go (i - 1) in
          go (Histogram.n_buckets - 1)
        in
        List (List.init (last + 1) (fun i -> Int (bucket i))) );
    ]

let rec span_json (node : Span.node) =
  let open Json in
  Obj
    [
      ("name", String node.Span.name);
      ("calls", Int node.Span.calls);
      ("seconds", Float node.Span.seconds);
      ("children", List (List.rev_map span_json node.Span.children));
    ]

let report () =
  let open Json in
  let counters =
    sorted_names Counter.name (Counter.all ())
    |> List.map (fun c -> (Counter.name c, Int (Counter.value c)))
  in
  let histograms =
    sorted_names Histogram.name (Histogram.all ())
    |> List.map (fun h -> (Histogram.name h, histogram_json h))
  in
  Obj
    [
      ("schema", String "hd_obs/1");
      ("generated_at_unix", Int (int_of_float (Unix.time ())));
      ("enabled", Bool (Atomic.get enabled));
      ("counters", Obj counters);
      ("histograms", Obj histograms);
      ("spans", List (List.map span_json (Span.merged ())));
    ]

let report_string () = Json.to_string (report ())

let write_report path =
  let text = report_string () in
  if path = "-" then print_endline text
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc text;
        output_char oc '\n')
  end
