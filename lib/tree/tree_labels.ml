module Bits = Cr_util.Bits

type label = {
  branches : (int * int) array; (* (offset on heavy path, child slot taken) *)
  offset : int; (* final offset on the last heavy path *)
}

type t = {
  tree : Tree.t;
  labels : label array; (* by tree index *)
  heavy : int array; (* tree index -> tree index of heavy child, -1 for a leaf *)
  bits : int array; (* tree index -> [label_bits] of its label *)
  storage : int array; (* tree index -> [node_storage_bits] *)
}

let equal_label a b = a.branches = b.branches && a.offset = b.offset

let pp_label fmt l =
  Format.fprintf fmt "[%s|%d]"
    (String.concat ";"
       (Array.to_list (Array.map (fun (o, c) -> Printf.sprintf "%d.%d" o c) l.branches)))
    l.offset

(* The public [label_bits] has no tree context, so it uses
   self-describing per-field widths; [node_storage_bits] below uses the
   tighter per-tree fixed widths. *)
let label_bits (l : label) =
  let b = Array.length l.branches in
  let field v = Bits.bits_for (max 2 (v + 1)) in
  Array.fold_left (fun acc (o, c) -> acc + field o + field c) (Bits.bits_for (b + 2) + field l.offset) l.branches

let build tree =
  let m = Tree.size tree in
  (* subtree sizes are DFS interval widths; the heavy child is the first
     (lowest id) child of largest subtree *)
  let size i = Tree.dfs_end tree i - Tree.dfs_position tree i in
  let heavy =
    Array.init m (fun i ->
        let best = ref (-1) and best_size = ref (-1) in
        for j = 0 to Tree.child_count tree i - 1 do
          let c = Tree.child tree i j in
          let s = size c in
          if s > !best_size then begin
            best := c;
            best_size := s
          end
        done;
        !best)
  in
  let labels = Array.make m { branches = [||]; offset = 0 } in
  (* assign labels in DFS order: parents before children *)
  for pos = 1 to m - 1 do
    let i = Tree.at_dfs_position tree pos in
    let p = Tree.parent_index tree i in
    let lp = labels.(p) in
    if heavy.(p) = i then labels.(i) <- { lp with offset = lp.offset + 1 }
    else begin
      let slot = ref (-1) in
      for j = 0 to Tree.child_count tree p - 1 do
        if Tree.child tree p j = i then slot := j
      done;
      assert (!slot >= 0);
      labels.(i) <- { branches = Array.append lp.branches [| (lp.offset, !slot) |]; offset = 0 }
    end
  done;
  let max_children =
    let best = ref 1 in
    for i = 0 to m - 1 do
      best := max !best (Tree.child_count tree i)
    done;
    !best
  in
  (* label encoding: branch count header + per-branch (offset, slot) +
     final offset.  Widths are per-tree constants known to every node. *)
  let offset_bits = Bits.bits_for (max m 2) and slot_bits = Bits.bits_for max_children in
  (* parent pointer + heavy-child pointer, as graph node ids *)
  let ptr = Bits.id_bits ~n:(Cr_graph.Graph.n (Tree.graph tree)) in
  let storage =
    Array.map
      (fun l ->
        let b = Array.length l.branches in
        Bits.bits_for (b + 2) + (b * (offset_bits + slot_bits)) + offset_bits + (2 * ptr))
      labels
  in
  { tree; labels; heavy; bits = Array.map label_bits labels; storage }

let tree t = t.tree

let label t v = t.labels.(Tree.tree_index t.tree v)

let label_bits_at t i = t.bits.(i)

let node_storage_bits_at t i = t.storage.(i)

let node_storage_bits t v = t.storage.(Tree.tree_index t.tree v)

let next_hop t v dest =
  let tree = t.tree in
  let i = Tree.tree_index tree v in
  let own = t.labels.(i) in
  if equal_label own dest then None
  else begin
    let nx = Array.length own.branches and nv = Array.length dest.branches in
    let rec common j =
      if j < nx && j < nv && own.branches.(j) = dest.branches.(j) then common (j + 1) else j
    in
    let j = common 0 in
    let go_parent () = Some (Tree.parent tree v) in
    let go_heavy () =
      let h = t.heavy.(i) in
      assert (h >= 0);
      Some (Tree.graph_node tree h)
    in
    if j < nx then go_parent () (* paths diverged, or v's prefix ends: climb *)
    else if j = nx && j = nv then begin
      (* same heavy path *)
      if dest.offset > own.offset then go_heavy () else go_parent ()
    end
    else begin
      (* j = nx < nv: destination branches off v's current heavy path *)
      let bo, bc = dest.branches.(j) in
      if bo > own.offset then go_heavy ()
      else if bo = own.offset then Some (Tree.graph_node tree (Tree.child tree i bc))
      else go_parent ()
    end
  end

let route t a b =
  let dest = label t b in
  let rec go v acc =
    match next_hop t v dest with
    | None -> List.rev (v :: acc)
    | Some u -> go u (v :: acc)
  in
  go a []
