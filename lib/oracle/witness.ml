module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra

type entry = { dist : float; next : int }
type table = (int, entry) Hashtbl.t array

(* Re-inserting an existing entry would be a no-op by value, so only
   absent entries are written and counted. *)
let close_chain table sw w u =
  let added = ref 0 in
  let x = ref u in
  let steps = ref 0 in
  let n = Array.length sw.Dijkstra.dist in
  while !x <> w do
    if !steps > n then invalid_arg "Witness.close_chain: cyclic parent chain";
    incr steps;
    let nx = sw.Dijkstra.parent.(!x) in
    if nx < 0 then invalid_arg "Witness.close_chain: broken parent chain";
    if not (Hashtbl.mem table.(!x) w) then begin
      Hashtbl.replace table.(!x) w { dist = sw.Dijkstra.dist.(!x); next = nx };
      incr added
    end;
    x := nx
  done;
  if not (Hashtbl.mem table.(w) w) then begin
    Hashtbl.replace table.(w) w { dist = 0.0; next = -1 };
    incr added
  end;
  !added

let build apsp ~radius =
  let n = Graph.n (Apsp.graph apsp) in
  let table = Array.init n (fun _ -> Hashtbl.create 16) in
  for w = 0 to n - 1 do
    let sw = Apsp.sssp apsp w in
    let r = radius w in
    for u = 0 to n - 1 do
      let d = sw.Dijkstra.dist.(u) in
      if d < r.(u) then Hashtbl.replace table.(u) w { dist = d; next = sw.Dijkstra.parent.(u) }
    done
  done;
  let closed = ref 0 in
  for w = 0 to n - 1 do
    let sw = Apsp.sssp apsp w in
    for u = 0 to n - 1 do
      if Hashtbl.mem table.(u) w then closed := !closed + close_chain table sw w u
    done
  done;
  (table, !closed)

let chain table x w =
  let n = Array.length table in
  let rec go x acc steps =
    if steps > n then invalid_arg "Witness.chain: cyclic witness chain";
    if x = w then List.rev (w :: acc)
    else
      match Hashtbl.find_opt table.(x) w with
      | None -> invalid_arg "Witness.chain: closure invariant broken"
      | Some e -> go e.next (x :: acc) (steps + 1)
  in
  go x [] 0

let size_entries table = Array.fold_left (fun acc b -> acc + Hashtbl.length b) 0 table
