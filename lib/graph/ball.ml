type t = {
  source : int;
  dist : float array;
  order : int array; (* reachable nodes by (distance, index) *)
  sorted : float array; (* sorted.(i) = dist.(order.(i)), unboxed *)
}

let of_dijkstra (res : Dijkstra.result) =
  let dist = res.dist in
  let reachable = Array.fold_left (fun c d -> if d < infinity then c + 1 else c) 0 dist in
  let order = Array.make reachable 0 in
  let j = ref 0 in
  Array.iteri
    (fun v d ->
      if d < infinity then begin
        order.(!j) <- v;
        incr j
      end)
    dist;
  (* [order] starts in index order and the sort is stable, so equal
     distances stay in index order: the (distance, index) order *)
  Array.stable_sort (fun a b -> Float.compare dist.(a) dist.(b)) order;
  { source = res.source; dist; order; sorted = Array.map (fun v -> dist.(v)) order }

let source t = t.source

let reachable t = Array.length t.order

(* Rightmost index with distance <= r, plus one. *)
let count_le t r =
  let lo = ref (-1) and hi = ref (Array.length t.sorted) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.sorted.(mid) <= r then lo := mid else hi := mid
  done;
  !lo + 1

let ball_size t r = count_le t r

let ball t r = Array.sub t.order 0 (count_le t r)

let kth_distance t m =
  if m < 1 || m > reachable t then invalid_arg "Ball.kth_distance";
  t.sorted.(m - 1)

let closest t m = Array.sub t.order 0 (min m (reachable t))

let closest_in t m pred =
  let out = ref [] in
  let found = ref 0 in
  let n = Array.length t.order in
  let i = ref 0 in
  while !found < m && !i < n do
    let v = t.order.(!i) in
    if pred v then begin
      out := v :: !out;
      incr found
    end;
    incr i
  done;
  Array.of_list (List.rev !out)

let distance t v = t.dist.(v)
