module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Dijkstra = Cr_graph.Dijkstra
module Rng = Cr_util.Rng
module Trace = Cr_obs.Trace

type t = {
  k : int;
  level : int array;
  pivots : int array array; (* pivots.(u).(j): closest A_j node, -1 if none *)
  pivot_dist : float array array;
      (* pivot_dist.(j).(u) = d(u, p_j(u)), level-major so that row
         level(w) + 1 is w's bunch radius; row k is all infinity *)
}

let climb rng ~p ~k =
  let rec go j = if j < k - 1 && Rng.bernoulli rng p then go (j + 1) else j in
  go 0

let ensure_top ~k level =
  if k > 1 && not (Array.exists (fun l -> l = k - 1) level) then level.(0) <- k - 1;
  level

let level_p ~n ~k = float_of_int n ** (-1.0 /. float_of_int k)

let sample_per_node ~seed ~n ~k =
  let p = level_p ~n ~k in
  ensure_top ~k (Array.init n (fun v -> climb (Rng.create (seed + (v * 7919))) ~p ~k))

let sample_stream ~seed ~n ~k =
  let p = level_p ~n ~k in
  let rng = Rng.create seed in
  ensure_top ~k (Array.init n (fun _ -> climb rng ~p ~k))

let create apsp ~k ~level =
  if k < 1 then invalid_arg "Tz_hierarchy.create: k < 1";
  let n = Graph.n (Apsp.graph apsp) in
  let pivots = Array.make_matrix n k (-1) in
  let pivot_dist = Array.make_matrix (k + 1) n infinity in
  for u = 0 to n - 1 do
    let d = (Apsp.sssp apsp u).Dijkstra.dist in
    for v = 0 to n - 1 do
      if d.(v) < infinity then
        for j = 0 to level.(v) do
          if
            d.(v) < pivot_dist.(j).(u)
            || (d.(v) = pivot_dist.(j).(u) && (pivots.(u).(j) = -1 || v < pivots.(u).(j)))
          then begin
            pivot_dist.(j).(u) <- d.(v);
            pivots.(u).(j) <- v
          end
        done
    done
  done;
  { k; level; pivots; pivot_dist }

let k t = t.k
let pivot t u j = t.pivots.(u).(j)
let stretch_bound t = float_of_int ((2 * t.k) - 1)

let bunch_radius t w = t.pivot_dist.(t.level.(w) + 1)

type bunches = (int, float) Hashtbl.t array (* member w -> d(u,w) from SPT(u) *)

let bunches apsp t =
  let n = Array.length t.level in
  Array.init n (fun u ->
      let d = (Apsp.sssp apsp u).Dijkstra.dist in
      let b = Hashtbl.create 16 in
      for w = 0 to n - 1 do
        if d.(w) < (bunch_radius t w).(u) then Hashtbl.replace b w d.(w)
      done;
      b)

let mem b u w = Hashtbl.mem b.(u) w
let node_entries b u = Hashtbl.length b.(u)
let size_entries b = Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 b

type 'e meet = {
  active : int;
  other : int;
  level : int;
  witness : int;
  active_dist : float;
  entry : 'e;
}

let alternate ?trace t find u v =
  let probe j x w hit =
    match trace with
    | None -> ()
    | Some sink -> sink (Trace.Bunch_probe { level = j; active = x; witness = w; hit })
  in
  (* invariant: w = p_j(x), dxw = d(x, w) *)
  let rec walk j x y w dxw =
    match find y w with
    | Some entry ->
        probe j x w true;
        Some { active = x; other = y; level = j; witness = w; active_dist = dxw; entry }
    | None ->
        probe j x w false;
        let j = j + 1 in
        if j >= t.k then None
        else begin
          let w' = t.pivots.(y).(j) in
          if w' < 0 then None else walk j y x w' t.pivot_dist.(j).(y)
        end
  in
  let u, v = (min u v, max u v) in
  let w0 = t.pivots.(u).(0) in
  if w0 < 0 then None else walk 0 u v w0 t.pivot_dist.(0).(u)

let query t b u v =
  if u = v then 0.0
  else
    match alternate t (fun y w -> Hashtbl.find_opt b.(y) w) u v with
    | None -> infinity
    | Some m -> m.active_dist +. m.entry
