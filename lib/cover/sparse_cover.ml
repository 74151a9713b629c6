module Graph = Cr_graph.Graph
module Dijkstra = Cr_graph.Dijkstra
module Apsp = Cr_graph.Apsp
module Ball = Cr_graph.Ball
module Pool = Cr_util.Domain_pool
module Tree = Cr_tree.Tree
module Bits = Cr_util.Bits

type cluster = { center : int; members : int array; tree : Tree.t }

type t = {
  graph : Graph.t;
  allowed : bool array;
  k : int;
  rho : float;
  clusters : cluster array;
  home : int array; (* node -> covering cluster index, -1 if not allowed *)
  containing : int list array; (* node -> clusters containing it *)
}

let ball_of g allowed rho u =
  let res = Dijkstra.run_restricted g ~allowed:(fun v -> allowed.(v)) ~bound:rho u in
  let acc = ref [] in
  Array.iteri (fun v d -> if d < infinity then acc := v :: !acc) res.Dijkstra.dist;
  Array.of_list !acc

(* u's rho-ball in the allowed subgraph, read off the full graph's APSP
   when every node of the full-graph ball B(u, rho) is allowed.  Then
   Dijkstra restricted to the allowed nodes settles the same nodes, in
   the same order, at the same distances, up to the bound: a node
   within the bound is only ever relaxed from nodes settled before it,
   which lie within the bound too.  Only membership matters to [build]
   (ball arrays are scanned as sets), so the order differs from
   [ball_of]'s harmlessly. *)
let apsp_ball apsp allowed rho u =
  let members = Ball.ball (Apsp.ball apsp u) rho in
  if Array.for_all (fun v -> allowed.(v)) members then Some members else None

(* Awerbuch–Peleg ball coarsening, organized in phases so that clusters
   created within one phase are pairwise disjoint: a node then belongs to
   at most (#phases) clusters, which is what keeps the cover sparse.

   Within a phase, a cluster starts from an uncovered eligible center's
   rho-ball and keeps absorbing the balls of other uncovered eligible
   centers that intersect it, as long as each round multiplies the
   cluster size by more than n^{1/k}; at most k-1 rounds can pass, so the
   radius stays below (2k-1) rho.  Absorbed balls are covered; balls that
   merely touch the cluster become ineligible for the rest of the phase
   and try again in the next one. *)
let build ?allowed ?apsp ?(pool = Pool.shared ()) ~k ~rho g =
  if k < 1 then invalid_arg "Sparse_cover.build: k < 1";
  if not (rho > 0.0) then invalid_arg "Sparse_cover.build: rho <= 0";
  (match apsp with
  | Some a when Apsp.graph a != g -> invalid_arg "Sparse_cover.build: apsp of another graph"
  | _ -> ());
  let n = Graph.n g in
  let allowed =
    match allowed with
    | None -> Array.make n true
    | Some p -> Array.init n p
  in
  let kappa =
    float_of_int (max 2 (Bits.ceil_pow (float_of_int (max 2 n)) (1.0 /. float_of_int k)))
  in
  let balls = Array.make n [||] in
  Option.iter (Apsp.fill_balls ~pool) apsp;
  Pool.parallel_for ~chunk:8 pool ~n (fun u ->
      if allowed.(u) then
        balls.(u) <-
          (match Option.bind apsp (fun a -> apsp_ball a allowed rho u) with
          | Some b -> b
          | None -> ball_of g allowed rho u));
  let covered = Array.make n false in
  let home = Array.make n (-1) in
  let clusters = ref [] in
  let n_clusters = ref 0 in
  let in_y = Array.make n false in
  let phase_mark = Array.make n false in
  let uncovered_left = ref 0 in
  for u = 0 to n - 1 do
    if allowed.(u) then incr uncovered_left
  done;
  while !uncovered_left > 0 do
    (* one phase *)
    Array.fill phase_mark 0 n false;
    let eligible u =
      allowed.(u) && (not covered.(u)) && not (Array.exists (fun x -> phase_mark.(x)) balls.(u))
    in
    let progress = ref true in
    while !progress do
      (* find the first eligible uncovered center *)
      let v = ref (-1) in
      (let u = ref 0 in
       while !v < 0 && !u < n do
         if eligible !u then v := !u;
         incr u
       done);
      if !v < 0 then progress := false
      else begin
        let v = !v in
        let members = ref [] in
        let size = ref 0 in
        let add x =
          if not in_y.(x) then begin
            in_y.(x) <- true;
            members := x :: !members;
            incr size
          end
        in
        Array.iter add balls.(v);
        let merged = ref [ v ] in
        let is_merged = Hashtbl.create 16 in
        Hashtbl.replace is_merged v ();
        (* Expansion rounds: absorb every eligible uncovered ball touching
           the current union.  Rounds that more-than-kappa-multiply the
           size keep going; the first non-multiplying round is still
           committed (the cluster must contain the balls that intersect
           its kernel — that is what makes coverage per cluster large
           enough for sparsity) and ends the growth.  At most k rounds
           total, so the radius stays below (2k+1) rho. *)
        let continue_growing = ref true in
        while !continue_growing do
          let prev_size = !size in
          let layer = ref [] in
          for u = 0 to n - 1 do
            if eligible u && not (Hashtbl.mem is_merged u) then
              if Array.exists (fun x -> in_y.(x)) balls.(u) then layer := u :: !layer
          done;
          if !layer = [] then continue_growing := false
          else begin
            let added = ref [] in
            List.iter
              (fun u ->
                Array.iter
                  (fun x ->
                    if not in_y.(x) then begin
                      in_y.(x) <- true;
                      added := x :: !added
                    end)
                  balls.(u))
              !layer;
            let new_size = prev_size + List.length !added in
            size := new_size;
            members := List.rev_append !added !members;
            List.iter
              (fun u ->
                Hashtbl.replace is_merged u ();
                merged := u :: !merged)
              !layer;
            if float_of_int new_size <= kappa *. float_of_int prev_size then
              continue_growing := false
          end
        done;
        let member_arr = Array.of_list !members in
        Array.sort Int.compare member_arr;
        let ci = !n_clusters in
        let cover u =
          if not covered.(u) then begin
            covered.(u) <- true;
            home.(u) <- ci;
            decr uncovered_left
          end
        in
        List.iter cover !merged;
        (* opportunistically cover any center whose ball fits entirely
           inside the cluster *)
        Array.iter
          (fun u ->
            if allowed.(u) && (not covered.(u)) && Array.for_all (fun x -> in_y.(x)) balls.(u)
            then cover u)
          member_arr;
        (* spanning tree: SPT from v inside the cluster, edges <= 2 rho *)
        let res =
          Dijkstra.run_restricted g
            ~allowed:(fun x -> x >= 0 && x < n && in_y.(x))
            ~max_edge:(2.0 *. rho) v
        in
        let tree = Tree.of_sssp g res ~keep:(fun x -> in_y.(x)) in
        Array.iter
          (fun x ->
            if not (Tree.mem tree x) then
              invalid_arg "Sparse_cover.build: cluster disconnected under 2*rho edge filter")
          member_arr;
        clusters := { center = v; members = member_arr; tree } :: !clusters;
        incr n_clusters;
        Array.iter
          (fun x ->
            in_y.(x) <- false;
            phase_mark.(x) <- true)
          member_arr
      end
    done
  done;
  let clusters = Array.of_list (List.rev !clusters) in
  let containing = Array.make n [] in
  Array.iteri
    (fun ci c -> Array.iter (fun x -> containing.(x) <- ci :: containing.(x)) c.members)
    clusters;
  { graph = g; allowed; k; rho; clusters; home; containing }

let clusters t = t.clusters

let rho t = t.rho

let k t = t.k

let home t v =
  if v < 0 || v >= Array.length t.home || t.home.(v) < 0 then
    invalid_arg "Sparse_cover.home: node not in cover universe"
  else t.home.(v)

let clusters_of t v = t.containing.(v)

let max_overlap t =
  Array.fold_left (fun acc l -> max acc (List.length l)) 0 t.containing

let max_radius t =
  Array.fold_left (fun acc c -> max acc (Tree.radius c.tree)) 0.0 t.clusters

let max_tree_edge t =
  Array.fold_left (fun acc c -> max acc (Tree.max_edge c.tree)) 0.0 t.clusters

let check_cover t =
  let ok = ref true in
  let n = Graph.n t.graph in
  for u = 0 to n - 1 do
    if t.allowed.(u) then begin
      let ball = ball_of t.graph t.allowed t.rho u in
      let c = t.clusters.(t.home.(u)) in
      let member = Hashtbl.create (Array.length c.members) in
      Array.iter (fun x -> Hashtbl.replace member x ()) c.members;
      Array.iter (fun x -> if not (Hashtbl.mem member x) then ok := false) ball
    end
  done;
  !ok
