(* Internal helpers of the ordering search (Ordering_search and its
   distributed A*, Hd_parallel.Hdastar): its counters and pruning rule
   PR2. *)

module Elim_graph = Hd_graph.Elim_graph
module Obs = Hd_obs.Obs

(* Observability counters shared by every ordering search; the spans
   each instance of Ordering_search.Make opens ("bb_<cost>.solve",
   "astar_<cost>.solve") tell the runs apart.
   Registered here at module-init time so they appear in every report,
   even at 0.  Naming scheme: docs/OBSERVABILITY.md. *)
let c_expanded = Obs.Counter.make "search.nodes_expanded"
let c_generated = Obs.Counter.make "search.nodes_generated"
let c_duplicates = Obs.Counter.make "search.duplicates_pruned"
let c_stale = Obs.Counter.make "search.stale_pops"
let c_pr1 = Obs.Counter.make "search.pr1_fires"
let c_pr2 = Obs.Counter.make "search.pr2_fires"
let c_reductions = Obs.Counter.make "search.reductions_applied"
let c_ub_improved = Obs.Counter.make "search.ub_improvements"
let c_lb_improved = Obs.Counter.make "search.lb_improvements"
let c_live_lb_skips = Obs.Counter.make "search.live_lb_skips"
let c_minor_bounds = Obs.Counter.make "search.minor_bounds"

(* Pruning rule PR 2 (Section 4.4.5).  The graph [eg] is positioned
   just after eliminating some vertex [v]; [swap_equivalent eg u] holds
   when eliminating [u] before [v] would have produced an ordering of
   identical width, so that only one of the two branches needs
   exploring.  With [v] and [u] non-adjacent (before [v]'s elimination)
   this is always so; with them adjacent it requires each to own a
   still-alive neighbour that the other lacked. *)
let swap_equivalent ?(adjacent_case = true) eg u =
  match Elim_graph.last_step eg with
  | None -> false
  | Some { Elim_graph.vertex = _; nbrs; fill } ->
      if not (List.mem u nbrs) then true
      else if not adjacent_case then
        (* the adjacent-vertex case preserves bag sizes (sound for
           treewidth) but permutes bag contents, which can change
           cover costs — costs that are not size-only disable it *)
        false
      else
        let fill_partners =
          List.filter_map
            (fun (a, b) ->
              if a = u then Some b else if b = u then Some a else None)
            fill
        in
        (* v's private neighbour: a fill partner of u was a neighbour of
           v but not of u before the elimination *)
        let v_has_private = fill_partners <> [] in
        (* u's private neighbour: a current neighbour of u outside v's
           old neighbourhood that did not arrive via fill *)
        let u_has_private =
          List.exists
            (fun b -> (not (List.mem b nbrs)) && not (List.mem b fill_partners))
            (Elim_graph.neighbors eg u)
        in
        v_has_private && u_has_private

(* [prune_child eg ~last ~candidate] decides whether the branch
   eliminating [candidate] immediately after [last] is PR2-redundant;
   the kept branch is the one eliminating the smaller vertex first. *)
let prune_child ?adjacent_case eg ~last ~candidate =
  let pruned = last > candidate && swap_equivalent ?adjacent_case eg candidate in
  if pruned then Obs.Counter.incr c_pr2;
  pruned
