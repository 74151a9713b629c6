module Bits = Cr_util.Bits
module Digit_hash = Cr_util.Digit_hash
module Graph = Cr_graph.Graph

type outcome = Found of int | Not_found_reported

type search_result = { walk : int list; outcome : outcome; rounds : int }

type t = {
  tree : Tree.t;
  labels : Tree_labels.t;
  k : int;
  sigma : int;
  cap : int;
  hash : Digit_hash.t;
  order : int array; (* position -> tree index, by (root distance, id) *)
  position : int array; (* tree index -> position *)
  level_start : int array; (* level_start.(l) = first position with l digits *)
  name_len : int array; (* per tree index *)
  dir : Tree_directory.t; (* by position: ident -> tree index *)
  bits : int array; (* per tree index: [node_storage_bits] *)
  max_load : int;
}

(* Positions are named level by level: 1 root, then sigma 1-digit names,
   sigma^2 2-digit names, ...  level_start.(l) is the first position of
   level l; level_start.(k+1) caps the total. *)
let compute_level_starts ~sigma ~k m =
  let starts = Array.make (k + 2) 0 in
  let acc = ref 1 in
  starts.(0) <- 0;
  for l = 1 to k + 1 do
    starts.(l) <- !acc;
    if l <= k then begin
      let cap_level =
        let rec pow acc i = if i = 0 || acc > m then acc else pow (acc * sigma) (i - 1) in
        pow 1 l
      in
      acc := !acc + cap_level
    end
  done;
  if !acc < m then invalid_arg "Ni_tree_routing: tree too large for sigma^k names";
  starts

let level_of_position starts ~k p =
  let rec find l =
    if l > k then invalid_arg "Ni_tree_routing: position beyond last level"
    else if p < starts.(l + 1) then l
    else find (l + 1)
  in
  find 0

let name_of_position ~sigma starts ~k p =
  let l = level_of_position starts ~k p in
  if l = 0 then [||]
  else begin
    let v = ref (p - starts.(l)) in
    let digits = Array.make l 0 in
    for i = l - 1 downto 0 do
      digits.(i) <- !v mod sigma;
      v := !v / sigma
    done;
    digits
  end

(* Position of the node whose name is digits.(0 .. len-1), or -1 if that
   name is unassigned. *)
let position_of_name ~sigma starts ~m digits len =
  let v = ref 0 in
  for i = 0 to len - 1 do
    v := (!v * sigma) + digits.(i)
  done;
  let p = starts.(len) + !v in
  if p < m then p else -1

let sigma_for ~n_global ~k =
  max 2 (Bits.ceil_pow (float_of_int (max 2 n_global)) (1.0 /. float_of_int k))

let try_build ~seed ~k ~sigma ~cap tree order level_start name_len =
  let m = Array.length order in
  let g = Tree.graph tree in
  let hash = Digit_hash.create ~seed ~sigma ~digits:k in
  (* Directory of each named node: the [cap] prefix-matching nodes closest
     to the root.  Scanning nodes in distance order and filing each under
     all its hash-prefix names fills every directory closest-first in one
     hashing pass. *)
  let slot = Array.make (m * (k + 1)) 0 and node = Array.make (m * (k + 1)) 0 in
  let full = Array.make m 0 in
  (* home.(p): the directory that must know the node at position p — the
     one named by the first max(0, l-1) hash digits of its identifier,
     for a name of l digits (for l = 0, the root must know itself) *)
  let home = Array.make m (-1) in
  let entries = ref 0 in
  Array.iteri
    (fun pz z ->
      let idz = Graph.name_of g (Tree.graph_node tree z) in
      let home_len = max 0 (name_len.(z) - 1) in
      (* [name]: the l-digit hash prefix as a number, as in
         [position_of_name] *)
      let name = ref 0 in
      for l = 0 to k do
        if l > 0 then name := (!name * sigma) + Digit_hash.digit hash idz (l - 1);
        let p = level_start.(l) + !name in
        let p = if p < m then p else -1 in
        if l = home_len then home.(pz) <- p;
        if p >= 0 && full.(p) < cap then begin
          slot.(!entries) <- p;
          node.(!entries) <- z;
          incr entries;
          full.(p) <- full.(p) + 1
        end
      done)
    order;
  let dir = Tree_directory.build tree ~entries:!entries ~slot ~node in
  (* Validate the Lemma-4 delivery precondition: every node is in its
     home directory. *)
  let ok = ref true in
  Array.iteri
    (fun pz z ->
      let p = home.(pz) in
      if p < 0 || Tree_directory.find dir p (Graph.name_of g (Tree.graph_node tree z)) <> z then
        ok := false)
    order;
  if !ok then Some (hash, dir, Array.fold_left max 0 full) else None

(* Number of assigned trie children of the node at position p, and the
   first one's position. *)
let trie_children ~sigma ~k ~m level_start p =
  let l = level_of_position level_start ~k p in
  if l >= k then (0, 0)
  else begin
    let first_child = level_start.(l + 1) + ((p - level_start.(l)) * sigma) in
    if first_child >= m then (0, 0) else (min sigma (m - first_child), first_child)
  end

let build ?(seed = 0x5EED) ~k ~n_global tree =
  if k < 1 then invalid_arg "Ni_tree_routing.build: k < 1";
  let labels = Tree_labels.build tree in
  let order = Tree.root_distance_order tree in
  let m = Array.length order in
  let position = Array.make m 0 in
  Array.iteri (fun p i -> position.(i) <- p) order;
  let sigma = sigma_for ~n_global ~k in
  let level_start = compute_level_starts ~sigma ~k m in
  let name_len = Array.map (fun p -> level_of_position level_start ~k p) position in
  let base_cap = max 1 (sigma * Bits.bits_for (max 2 n_global)) in
  (* Re-seed on (vanishingly rare) hash overload; double the directory
     capacity if 64 seeds all fail — a constructive version of the
     with-high-probability argument. *)
  let rec attempt cap tries =
    let rec seeds i =
      if i >= 64 then None
      else
        match
          try_build ~seed:(seed + (tries * 64) + i) ~k ~sigma ~cap tree order level_start name_len
        with
        | Some r -> Some (cap, r)
        | None -> seeds (i + 1)
    in
    match seeds 0 with
    | Some r -> r
    | None ->
        if cap >= m then failwith "Ni_tree_routing.build: cannot satisfy directory invariant"
        else attempt (min (2 * cap) m) (tries + 1)
  in
  let cap, (hash, dir, max_load) = attempt (min base_cap m) 0 in
  (* Bits stored at each node: hash function, own routing info, trie
     children (a presence bitmap over sigma slots plus one label each)
     and directory entries (identifier plus label). *)
  let n = Graph.n (Tree.graph tree) in
  let ident_bits = 2 * Bits.id_bits ~n in
  let hash_bits = Digit_hash.storage_bits ~n in
  let bits =
    Array.init m (fun i ->
        let p = position.(i) in
        let cc, first_child = trie_children ~sigma ~k ~m level_start p in
        let trie_bits = ref sigma in
        for c = first_child to first_child + cc - 1 do
          trie_bits := !trie_bits + Tree_labels.label_bits_at labels order.(c)
        done;
        let dir_bits =
          Tree_directory.fold dir p
            (fun u acc -> acc + ident_bits + Tree_labels.label_bits_at labels u)
            0
        in
        hash_bits + Tree_labels.node_storage_bits_at labels i + !trie_bits + dir_bits)
  in
  { tree; labels; k; sigma; cap; hash; order; position; level_start; name_len; dir; bits;
    max_load }

let tree t = t.tree

let sigma t = t.sigma

let directory_capacity t = t.cap

let name_of t v =
  let p = t.position.(Tree.tree_index t.tree v) in
  name_of_position ~sigma:t.sigma t.level_start ~k:t.k p

let name_digits t v = t.name_len.(Tree.tree_index t.tree v)

let append_path tree walk_rev a b =
  (* extend reversed walk (ending at a) with the tree path a -> b,
     excluding a itself *)
  match Tree.path tree a b with
  | [] -> walk_rev
  | _first :: rest -> List.rev_append rest walk_rev

let search ?trace t ~bound ident_target =
  let bound = max 1 (min bound t.k) in
  let tree = t.tree in
  let root = Tree.root tree in
  let h = Digit_hash.hash t.hash ident_target in
  let m = Array.length t.order in
  (* [pc]: position of the node the search stands at *)
  let rec go pc walk_rev round =
    let current = Tree.graph_node tree t.order.(pc) in
    let hit = Tree_directory.find t.dir pc ident_target in
    if hit >= 0 then begin
      let v = Tree.graph_node tree hit in
      (match trace with
      | None -> ()
      | Some f -> f (Cr_obs.Trace.Tree_step { round; from_node = current; to_node = v }));
      let walk_rev = append_path tree walk_rev current v in
      { walk = List.rev walk_rev; outcome = Found v; rounds = round }
    end
    else if round = bound then begin
      let walk_rev = append_path tree walk_rev current root in
      { walk = List.rev walk_rev; outcome = Not_found_reported; rounds = round }
    end
    else begin
      let p = position_of_name ~sigma:t.sigma t.level_start ~m h round in
      if p >= 0 then begin
        let next = Tree.graph_node tree t.order.(p) in
        (match trace with
        | None -> ()
        | Some f -> f (Cr_obs.Trace.Tree_step { round; from_node = current; to_node = next }));
        let walk_rev = append_path tree walk_rev current next in
        go p walk_rev (round + 1)
      end
      else begin
        (* No node carries that name: the level is not full, so every
           prefix-matching node fit in the directory just checked —
           conclusively absent. *)
        let walk_rev = append_path tree walk_rev current root in
        { walk = List.rev walk_rev; outcome = Not_found_reported; rounds = round }
      end
    end
  in
  go t.position.(Tree.root_index tree) [ root ] 1

let guaranteed_bound t vs =
  Array.fold_left
    (fun acc v ->
      let i = Tree.find t.tree v in
      if i >= 0 then max acc (max 1 t.name_len.(i)) else t.k)
    1 vs

let node_storage_bits t v = t.bits.(Tree.tree_index t.tree v)

let node_storage_bits_at t i = t.bits.(i)

let total_storage_bits t = Array.fold_left ( + ) 0 t.bits

let max_prefix_load t = t.max_load
