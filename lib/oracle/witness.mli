(** Witness tables: per-node entries keyed by a target, each holding
    the exact distance to the target and the next hop toward it on the
    target's shortest-path tree.  {!Path_oracle} keys them by bunch
    witness, {!Sparse_oracle} by vicinity target; both stitch concrete
    walks by following the next-hop pointers with {!chain}.

    Stitching needs the chain invariant: if [(u, w)] is stored then
    [(x, w)] is stored for every [x] on the tree path [u → w].  Over
    the reals this holds for a tie-inclusive ball, but floating-point
    distance sums can break it by an ulp, so tables are
    {e constructively closed}: every missing intermediate entry is
    inserted.  An entry's value is a pure function of [(x, w)] —
    [(sssp w).dist.(x)] and [(sssp w).parent.(x)] — so a closed table
    does not depend on insertion order. *)

type entry = { dist : float; next : int }
(** [next] is [-1] on the target's own entry. *)

type table = (int, entry) Hashtbl.t array
(** [table.(x)] maps a target [w] to [x]'s entry for it. *)

val build : Cr_graph.Apsp.t -> radius:(int -> float array) -> table * int
(** [build apsp ~radius] stores [(u, w)] for every pair with
    [d(u,w) < (radius w).(u)], pricing [d(u,w)] as
    [(sssp w).dist.(u)] — from SPT(w), the value the entry stores —
    then closes the chain of every stored entry.  Returns the table
    and the number of entries the closure added. *)

val close_chain : table -> Cr_graph.Dijkstra.result -> int -> int -> int
(** [close_chain table sw w u] inserts the chain [u → … → w] of
    [sw = sssp w] and returns how many entries were new.
    @raise Invalid_argument on a broken or cyclic parent chain. *)

val chain : table -> int -> int -> int list
(** [chain table x w] is the walk [x → … → w] through the next-hop
    pointers.
    @raise Invalid_argument if the closure invariant is broken. *)

val size_entries : table -> int
