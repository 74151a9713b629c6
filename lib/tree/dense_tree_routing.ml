module Bits = Cr_util.Bits
module Graph = Cr_graph.Graph

type outcome = Found of int | Not_found_reported

type search_result = { walk : int list; outcome : outcome }

type t = {
  tree : Tree.t;
  labels : Tree_labels.t;
  dir : Tree_directory.t; (* by dfs index: ident -> tree index *)
}

(* Deterministic avalanche of an identifier into [0, m). *)
let slot_of ident m =
  let z = Int64.of_int (ident + 0x9E37) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 8) mod m

let build tree =
  let labels = Tree_labels.build tree in
  let g = Tree.graph tree in
  let m = Tree.size tree in
  let slot = Array.make m 0 and node = Array.make m 0 in
  let entries = ref 0 in
  for i = 0 to m - 1 do
    if Tree.member_at tree i then begin
      slot.(!entries) <- slot_of (Graph.name_of g (Tree.graph_node tree i)) m;
      node.(!entries) <- i;
      incr entries
    end
  done;
  { tree; labels; dir = Tree_directory.build tree ~entries:!entries ~slot ~node }

let tree t = t.tree

let append_path tree walk_rev a b =
  match Tree.path tree a b with
  | [] -> walk_rev
  | _first :: rest -> List.rev_append rest walk_rev

(* Descend from the root to the node at DFS position q by interval
   containment — every step is a local decision on stored child
   intervals. *)
let descend tree q =
  let rec go i acc =
    let acc = Tree.graph_node tree i :: acc in
    if Tree.dfs_position tree i = q then List.rev acc
    else begin
      let next = ref (-1) in
      for j = 0 to Tree.child_count tree i - 1 do
        let c = Tree.child tree i j in
        if q >= Tree.dfs_position tree c && q < Tree.dfs_end tree c then next := c
      done;
      assert (!next >= 0);
      go !next acc
    end
  in
  go (Tree.root_index tree) []

let search ?trace t ident =
  let tree = t.tree in
  let root = Tree.root tree in
  let m = Tree.size tree in
  let q = slot_of ident m in
  let down = descend tree q in
  let dir_node = Tree.graph_node tree (Tree.at_dfs_position tree q) in
  (match trace with
  | None -> ()
  | Some f -> f (Cr_obs.Trace.Tree_step { round = 1; from_node = root; to_node = dir_node }));
  let walk_rev = List.rev down in
  let hit = Tree_directory.find t.dir q ident in
  if hit >= 0 then begin
    let v = Tree.graph_node tree hit in
    (match trace with
    | None -> ()
    | Some f -> f (Cr_obs.Trace.Tree_step { round = 2; from_node = dir_node; to_node = v }));
    let walk_rev = append_path tree walk_rev dir_node v in
    { walk = List.rev walk_rev; outcome = Found v }
  end
  else begin
    let walk_rev = append_path tree walk_rev dir_node root in
    { walk = List.rev walk_rev; outcome = Not_found_reported }
  end

let cost_bound t =
  let k = Bits.bits_for (max 2 (Tree.size t.tree)) in
  (4.0 *. Tree.radius t.tree) +. (2.0 *. float_of_int k *. Tree.max_edge t.tree)

let node_storage_bits t v =
  let tree = t.tree in
  let i = Tree.tree_index tree v in
  let n = Graph.n (Tree.graph tree) in
  let ident_bits = 2 * Bits.id_bits ~n in
  let own = Tree_labels.node_storage_bits_at t.labels i in
  let interval_bits = 2 * Bits.bits_for (max 2 (Tree.size tree)) in
  let child_bits = Tree.child_count tree i * interval_bits in
  let dir_bits =
    Tree_directory.fold t.dir (Tree.dfs_position tree i)
      (fun u acc -> acc + ident_bits + Tree_labels.label_bits_at t.labels u)
      0
  in
  own + child_bits + dir_bits

let total_storage_bits t =
  Array.fold_left (fun acc v -> acc + node_storage_bits t v) 0 (Tree.nodes t.tree)
