module Graph = Cr_graph.Graph
module Dijkstra = Cr_graph.Dijkstra

(* Everything is addressed by tree index: [nodes] ascends by graph id,
   so a graph id's index is a binary search away, and every per-node
   field is a flat array over indexes. *)
type t = {
  graph : Graph.t;
  root : int; (* graph id *)
  nodes : int array; (* tree index -> graph id, ascending *)
  parent : int array; (* tree index -> parent's tree index, -1 for the root *)
  child_start : int array; (* i's children are children.(child_start.(i) .. child_start.(i+1)-1) *)
  children : int array; (* child tree indexes, ascending per parent *)
  depth_w : float array;
  member : bool array;
  dfs : int array; (* DFS position -> tree index *)
  dfs_pos : int array; (* tree index -> DFS position *)
  dfs_end : int array; (* tree index -> end of its subtree's DFS interval *)
}

(* Index of v in the ascending [nodes], or -1. *)
let index_in nodes v =
  let rec go lo hi =
    if lo >= hi then -1
    else begin
      let mid = (lo + hi) lsr 1 in
      let x = nodes.(mid) in
      if x = v then mid else if x < v then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length nodes)

let find t v = index_in t.nodes v

let of_sssp g (res : Dijkstra.result) ~keep =
  let n = Graph.n g in
  let source = res.Dijkstra.source in
  (* mark.[v]: '\000' outside the tree, '\001' relay, '\002' member *)
  let mark = Bytes.make n '\000' in
  let any = ref false in
  (* Mark kept nodes and pull in ancestors as relays. *)
  for v = 0 to n - 1 do
    if res.Dijkstra.dist.(v) < infinity && keep v then begin
      any := true;
      let rec up x =
        if Bytes.get mark x = '\000' then begin
          Bytes.set mark x '\001';
          if x <> source then up res.Dijkstra.parent.(x)
        end
      in
      up v;
      Bytes.set mark v '\002'
    end
  done;
  if not !any then invalid_arg "Tree.of_sssp: no kept node reachable";
  (* the root is always a member *)
  Bytes.set mark source '\002';
  let m = ref 0 in
  for v = 0 to n - 1 do
    if Bytes.get mark v <> '\000' then incr m
  done;
  let m = !m in
  let nodes = Array.make m 0 and member = Array.make m false in
  let i = ref 0 in
  for v = 0 to n - 1 do
    let c = Bytes.get mark v in
    if c <> '\000' then begin
      nodes.(!i) <- v;
      member.(!i) <- c = '\002';
      incr i
    end
  done;
  let parent = Array.make m (-1) in
  (* children as CSR: count, prefix-sum, then fill in index order, which
     is graph-id order *)
  let child_start = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    let v = nodes.(i) in
    if v <> source then begin
      let p = index_in nodes res.Dijkstra.parent.(v) in
      parent.(i) <- p;
      child_start.(p + 1) <- child_start.(p + 1) + 1
    end
  done;
  for i = 1 to m do
    child_start.(i) <- child_start.(i) + child_start.(i - 1)
  done;
  let children = Array.make (max 0 (m - 1)) 0 in
  (* fill advances child_start.(p) to p's end, i.e. the old
     child_start.(p+1); shifting right by one restores the starts *)
  for i = 0 to m - 1 do
    let p = parent.(i) in
    if p >= 0 then begin
      children.(child_start.(p)) <- i;
      child_start.(p) <- child_start.(p) + 1
    end
  done;
  for i = m downto 1 do
    child_start.(i) <- child_start.(i - 1)
  done;
  child_start.(0) <- 0;
  (* Preorder DFS on an int stack (no recursion: path graphs are deep),
     children in ascending order.  The stack borrows [dfs_end]'s
     storage, which is only written once the order is known. *)
  let root_i = index_in nodes source in
  let dfs = Array.make m 0 and dfs_pos = Array.make m 0 in
  let dfs_end = Array.make m 0 in
  let stack = dfs_end in
  stack.(0) <- root_i;
  let sp = ref 1 and pos = ref 0 in
  while !sp > 0 do
    decr sp;
    let i = stack.(!sp) in
    dfs.(!pos) <- i;
    dfs_pos.(i) <- !pos;
    incr pos;
    for c = child_start.(i + 1) - 1 downto child_start.(i) do
      stack.(!sp) <- children.(c);
      incr sp
    done
  done;
  (* subtree ends, leaves first: a subtree's interval closes where its
     last child's does *)
  for p = m - 1 downto 0 do
    let i = dfs.(p) in
    let last = child_start.(i + 1) - 1 in
    dfs_end.(i) <- (if last < child_start.(i) then p + 1 else dfs_end.(children.(last)))
  done;
  (* The weighted depth is the SSSP distance: both are the same float
     sum along the same parent chain, accumulated from the root. *)
  let depth_w = Array.map (fun v -> res.Dijkstra.dist.(v)) nodes in
  { graph = g; root = source; nodes; parent; child_start; children; depth_w; member; dfs;
    dfs_pos; dfs_end }

let spanning g root = of_sssp g (Dijkstra.run g root) ~keep:(fun _ -> true)

let graph t = t.graph

let root t = t.root

let size t = Array.length t.nodes

let nodes t = t.nodes

let mem t v = find t v >= 0

let tree_index t v =
  let i = find t v in
  if i < 0 then raise Not_found else i

let is_member t v =
  let i = find t v in
  i >= 0 && t.member.(i)

let graph_node t i = t.nodes.(i)

let parent t v =
  let p = t.parent.(tree_index t v) in
  if p < 0 then -1 else t.nodes.(p)

let child_count t i = t.child_start.(i + 1) - t.child_start.(i)

let child t i j = t.children.(t.child_start.(i) + j)

let children t v =
  let i = tree_index t v in
  Array.init (child_count t i) (fun j -> t.nodes.(child t i j))

let depth t v = t.depth_w.(tree_index t v)

let hop_depth t v =
  let rec up i h = if t.parent.(i) < 0 then h else up t.parent.(i) (h + 1) in
  up (tree_index t v) 0

let radius t = Array.fold_left max 0.0 t.depth_w

let max_edge t =
  let best = ref 0.0 in
  Array.iteri
    (fun i p ->
      if p >= 0 then begin
        match Graph.edge_weight t.graph t.nodes.(p) t.nodes.(i) with
        | Some w -> if w > !best then best := w
        | None -> assert false
      end)
    t.parent;
  !best

(* a is an ancestor of b (or b itself) iff b's DFS position lies in a's
   subtree interval *)
let lca_index t ia ib =
  let pb = t.dfs_pos.(ib) in
  let a = ref ia in
  while not (t.dfs_pos.(!a) <= pb && pb < t.dfs_end.(!a)) do
    a := t.parent.(!a)
  done;
  !a

let lca t a b = t.nodes.(lca_index t (tree_index t a) (tree_index t b))

let path t a b =
  let ia = tree_index t a and ib = tree_index t b in
  let l = lca_index t ia ib in
  (* [l ... b], and the a-side below l collected l-first, then
     reversed onto it *)
  let rec down i acc = if i = l then t.nodes.(i) :: acc else down t.parent.(i) (t.nodes.(i) :: acc) in
  let rec up i acc = if i = l then acc else up t.parent.(i) (t.nodes.(i) :: acc) in
  List.rev_append (up ia []) (down ib [])

let path_length t a b =
  let ia = tree_index t a and ib = tree_index t b in
  let l = lca_index t ia ib in
  t.depth_w.(ia) +. t.depth_w.(ib) -. (2.0 *. t.depth_w.(l))

let dfs_order t = Array.map (fun i -> t.nodes.(i)) t.dfs

let dfs_index t v = t.dfs_pos.(tree_index t v)

let subtree_interval t v =
  let i = tree_index t v in
  (t.dfs_pos.(i), t.dfs_end.(i))

let members t =
  let acc = ref [] in
  for i = Array.length t.nodes - 1 downto 0 do
    if t.member.(i) then acc := t.nodes.(i) :: !acc
  done;
  Array.of_list !acc

let root_distance_order t =
  (* [nodes] ascends by graph id, so the index tie-break is the id
     tie-break *)
  let d = t.depth_w in
  let order = Array.init (Array.length t.nodes) Fun.id in
  (* depths are finite, so [<] and [>] order them as [Float.compare] *)
  Array.stable_sort
    (fun i j -> if d.(i) < d.(j) then -1 else if d.(i) > d.(j) then 1 else i - j)
    order;
  order

let by_root_distance t = Array.map (fun i -> t.nodes.(i)) (root_distance_order t)

let root_index t = t.dfs.(0)

let parent_index t i = t.parent.(i)

let member_at t i = t.member.(i)

let dfs_position t i = t.dfs_pos.(i)

let dfs_end t i = t.dfs_end.(i)

let at_dfs_position t p = t.dfs.(p)
