type result = {
  source : int;
  dist : float array;
  parent : int array;
  parent_port : int array;
}

let run_general g ~allowed ~max_edge ~bound s =
  let n = Graph.n g in
  if s < 0 || s >= n then invalid_arg "Dijkstra: source out of range";
  if not (allowed s) then invalid_arg "Dijkstra: source not allowed";
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let parent_port = Array.make n (-1) in
  let heap = Heap.create n in
  dist.(s) <- 0.0;
  Heap.insert heap s 0.0;
  let settled = Array.make n false in
  while not (Heap.is_empty heap) do
    let u = Heap.pop_min_elt heap in
    if not settled.(u) then begin
      settled.(u) <- true;
      (* [u]'s heap priority was its [dist] entry: both are written
         together below *)
      let du = dist.(u) in
      (* No equal-distance parent rewriting: with extreme aspect ratios,
         floating-point rounding can make [du +. w = du], and a
         lexicographic tie-break would then create parent cycles.  The
         heap's strict (priority, element) total order already makes the
         settle order — and so the tree — a pure function of the graph
         and source, independent of relaxation history; [Apsp.repair]
         relies on that to share clean sources' results bit-identically
         across mutations that cannot affect them. *)
      let adj = Graph.neighbors g u in
      for j = 0 to Array.length adj - 1 do
        let v, w = adj.(j) in
        if allowed v && w <= max_edge && not settled.(v) then begin
          let dv = du +. w in
          if dv <= bound && dv < dist.(v) then begin
            dist.(v) <- dv;
            parent.(v) <- u;
            Heap.insert_or_decrease heap v dv
          end
        end
      done
    end
  done;
  (* ports once per reached node, for its final parent ([Graph.port] is
     a search) *)
  for v = 0 to n - 1 do
    let p = parent.(v) in
    if p >= 0 then
      match Graph.port g v p with
      | Some port -> parent_port.(v) <- port
      | None -> assert false
  done;
  { source = s; dist; parent; parent_port }

let all _ = true

let run g s = run_general g ~allowed:all ~max_edge:infinity ~bound:infinity s

let run_bounded g s r = run_general g ~allowed:all ~max_edge:infinity ~bound:r s

let run_restricted g ~allowed ?(max_edge = infinity) ?(bound = infinity) s =
  run_general g ~allowed ~max_edge ~bound s

let path_to res t =
  if res.dist.(t) = infinity then raise Not_found;
  let rec up v acc = if v = res.source then v :: acc else up res.parent.(v) (v :: acc) in
  up t []

let bellman_ford g s =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  dist.(s) <- 0.0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    Graph.iter_edges g (fun u v w ->
        if dist.(u) +. w < dist.(v) then begin
          dist.(v) <- dist.(u) +. w;
          changed := true
        end;
        if dist.(v) +. w < dist.(u) then begin
          dist.(u) <- dist.(v) +. w;
          changed := true
        end)
  done;
  dist

let eccentricity res =
  Array.fold_left (fun acc d -> if d < infinity && d > acc then d else acc) 0.0 res.dist
