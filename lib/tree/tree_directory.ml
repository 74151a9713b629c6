type t = {
  start : int array; (* directory s holds entries start.(s) .. start.(s+1)-1 *)
  idents : int array; (* ascending within each directory *)
  values : int array; (* tree indexes *)
}

(* Binary search for [ident] in idents.(lo .. hi-1): its index, or
   [-(insertion point) - 1]. *)
let search idents lo hi ident =
  let rec go lo hi =
    if lo >= hi then -lo - 1
    else begin
      let mid = (lo + hi) lsr 1 in
      let x = idents.(mid) in
      if x = ident then mid else if x < ident then go (mid + 1) hi else go lo mid
    end
  in
  go lo hi

let build tree ~entries ~slot ~node =
  let g = Tree.graph tree in
  let slots = Tree.size tree in
  (* counting sort by directory, then insertion by identifier into the
     directory's sorted prefix: a repeated identifier overwrites its
     payload in place *)
  let start = Array.make (slots + 1) 0 in
  for e = 0 to entries - 1 do
    start.(slot.(e) + 1) <- start.(slot.(e) + 1) + 1
  done;
  for s = 1 to slots do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  let idents = Array.make entries 0 and values = Array.make entries 0 in
  let fill = Array.make slots 0 in
  for e = 0 to entries - 1 do
    let s = slot.(e) and v = node.(e) in
    let id = Cr_graph.Graph.name_of g (Tree.graph_node tree v) in
    let lo = start.(s) in
    let hi = lo + fill.(s) in
    let r = search idents lo hi id in
    if r >= 0 then values.(r) <- v
    else begin
      let at = -r - 1 in
      (* an int-typed loop, not [Array.blit]: blit cannot know the
         elements are immediate and pays a write barrier per slot *)
      for j = hi downto at + 1 do
        idents.(j) <- idents.(j - 1);
        values.(j) <- values.(j - 1)
      done;
      idents.(at) <- id;
      values.(at) <- v;
      fill.(s) <- fill.(s) + 1
    end
  done;
  let kept = Array.fold_left ( + ) 0 fill in
  if kept = entries then { start; idents; values }
  else begin
    (* close the gaps that overwritten duplicates left *)
    let start' = Array.make (slots + 1) 0 in
    let idents' = Array.make kept 0 and values' = Array.make kept 0 in
    for s = 0 to slots - 1 do
      start'.(s + 1) <- start'.(s) + fill.(s);
      Array.blit idents start.(s) idents' start'.(s) fill.(s);
      Array.blit values start.(s) values' start'.(s) fill.(s)
    done;
    { start = start'; idents = idents'; values = values' }
  end

let find t s ident =
  let r = search t.idents t.start.(s) t.start.(s + 1) ident in
  if r >= 0 then t.values.(r) else -1

let fold t s f init =
  let acc = ref init in
  for e = t.start.(s) to t.start.(s + 1) - 1 do
    acc := f t.values.(e) !acc
  done;
  !acc
