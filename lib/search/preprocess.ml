module Graph = Hd_graph.Graph
module Elim_graph = Hd_graph.Elim_graph
open Ordering_search

type result = { reduced : Graph.t; eliminated : int list; low : int }

let reduce ?(lb = 0) g =
  let eg = Elim_graph.of_graph g in
  let low = ref lb in
  let eliminated = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    match Elim_graph.find_reducible eg ~lb:!low with
    | Some v ->
        (* eliminating a simplicial vertex forces a bag of size
           degree + 1; almost simplicial vertices only fire when their
           degree is within the floor, so the floor update is sound
           either way *)
        low := max !low (Elim_graph.degree eg v);
        Elim_graph.eliminate eg v;
        eliminated := v :: !eliminated;
        progress := true
    | None -> ()
  done;
  {
    reduced = Elim_graph.to_graph eg;
    eliminated = List.rev !eliminated;
    low = !low;
  }

let treewidth_with_preprocessing ?within ?seed g =
  let n = Graph.n g in
  let rng_lb =
    Hd_bounds.Lower_bounds.treewidth
      ~rng:(Random.State.make [| Option.value seed ~default:1 |])
      g
  in
  let { reduced; eliminated; low } = reduce ~lb:rng_lb g in
  let inner =
    Tw.astar ?within ~seed:(Option.value seed ~default:0x7ea) reduced
  in
  let outcome =
    match inner.outcome with
    | Exact w -> Exact (max w low)
    | Bounds { lb; ub } -> Bounds { lb = max lb low; ub = max ub low }
  in
  (* stitch the witness ordering: the kernel's ordering runs first
     (it is the tail of sigma), then the preprocessed eliminations in
     reverse removal order toward the front.  Kernel orderings include
     the already-eliminated vertices as isolated padding; keep their
     slots but move the true eliminations behind them. *)
  let ordering =
    match inner.ordering with
    | None -> None
    | Some kernel_sigma ->
        let removed = Array.make n false in
        List.iter (fun v -> removed.(v) <- true) eliminated;
        (* kernel vertices in kernel order (they keep their relative
           positions), preprocessed vertices appended at the back in
           reverse removal order so the first-removed is eliminated
           first *)
        let kernel_part =
          Array.to_list kernel_sigma |> List.filter (fun v -> not removed.(v))
        in
        let sigma = Array.make n (-1) in
        let i = ref 0 in
        List.iter
          (fun v ->
            sigma.(!i) <- v;
            incr i)
          kernel_part;
        List.iter
          (fun v ->
            sigma.(!i) <- v;
            incr i)
          (List.rev eliminated);
        Some sigma
  in
  { inner with outcome; ordering }
