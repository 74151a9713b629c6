(* Path-reporting Thorup–Zwick oracle.

   Same hierarchy as the classic TZ distance query
   (Compact_routing.Tz_hierarchy: single-stream level sampling, pivot
   tie-breaks and the alternating walk), but every bunch entry (u, w)
   is a witness entry (Witness): the distance d(u,w) and the neighbor
   of u on the shortest-path tree of w, both read from SPT(w).  A
   query then not only returns the estimate d(u,w) + d(w,v) but can
   *stitch* the concrete walk u → … → w → … → v by following witness
   pointers up both trees.

   Pricing membership from SPT(w) rather than SPT(u) keeps every entry
   a pure function of (x, w), closure entries included, so the final
   table does not depend on insertion order.  The table is closed over
   its base bunch entries and over every pivot pair (u, p_j(u)), and
   the extra entries are counted honestly in size_entries/storage_bits
   (closure_entries reports how many the closure added). *)

module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Bits = Cr_util.Bits
module Trace = Cr_obs.Trace
module Tz = Compact_routing.Tz_hierarchy

type t = {
  h : Tz.t;
  n : int;
  bunches : Witness.table; (* witness w -> (d(u,w), hop toward w) *)
  closure_entries : int;
}

type answer = { est : float; walk : int list; via : int; levels : int }

let build ?(k = 3) ?(seed = 31) apsp =
  let n = Graph.n (Apsp.graph apsp) in
  let h = Tz.create apsp ~k ~level:(Tz.sample_stream ~seed ~n ~k) in
  let bunches, closed = Witness.build apsp ~radius:(Tz.bunch_radius h) in
  let closed = ref closed in
  for u = 0 to n - 1 do
    for j = 0 to k - 1 do
      let w = Tz.pivot h u j in
      if w >= 0 then closed := !closed + Witness.close_chain bunches (Apsp.sssp apsp w) w u
    done
  done;
  { h; n; bunches; closure_entries = !closed }

let k t = Tz.k t.h
let stretch_bound t = Tz.stretch_bound t.h
let closure_entries t = t.closure_entries
let size_entries t = Witness.size_entries t.bunches
let node_entries t u = Hashtbl.length t.bunches.(u)

let storage_bits t =
  let idb = Bits.id_bits ~n:t.n in
  (* bunch: witness id + exact distance + next-hop id; pivot tables:
     k ids + k distances per node *)
  (size_entries t * ((2 * idb) + Bits.distance_bits))
  + (t.n * k t * (idb + Bits.distance_bits))

let alternate ?trace t u v =
  Tz.alternate ?trace t.h (fun y w -> Hashtbl.find_opt t.bunches.(y) w) u v

let query ?trace t u v =
  if u = v then 0.0
  else
    match alternate ?trace t u v with
    | None -> infinity
    | Some m -> m.Tz.active_dist +. m.Tz.entry.Witness.dist

let path ?trace t u v =
  if u = v then Some { est = 0.0; walk = [ u ]; via = u; levels = 0 }
  else
    match alternate ?trace t u v with
    | None -> None
    | Some { Tz.active = x; other = y; level; witness = w; active_dist; entry } ->
        let up = Witness.chain t.bunches x w in
        let down = Witness.chain t.bunches y w in
        (match trace with
        | None -> ()
        | Some sink ->
            sink
              (Trace.Stitch
                 { via = w; up_hops = List.length up - 1; down_hops = List.length down - 1 }));
        (* up ends at w, down starts from y and ends at w: glue into
           x → … → w → … → y, then orient from u *)
        let x_to_y = up @ List.tl (List.rev down) in
        let walk = if x = u then x_to_y else List.rev x_to_y in
        Some { est = active_dist +. entry.Witness.dist; walk; via = w; levels = level + 1 }
