(** Per-node directories of one tree, as one CSR: three flat arrays
    (start offsets, identifiers, tree indexes) in place of a hash table
    per node.  A directory maps network identifiers to the tree nodes
    carrying them; its entries are sorted by identifier and found by
    binary search.  The Lemma 4 ({!Ni_tree_routing}) and Lemma 7
    ({!Dense_tree_routing}) directories both use it. *)

type t

val build : Tree.t -> entries:int -> slot:int array -> node:int array -> t
(** [build tree ~entries ~slot ~node] files tree index [node.(e)], for
    [e] in [0 .. entries-1], under directory [slot.(e)] (one directory
    per tree index, [0 .. size tree - 1]), keyed by its network
    identifier.  Entries are given in insertion order: when one
    directory receives the same identifier twice, the later entry
    replaces the earlier, as [Hashtbl.replace] would. *)

val find : t -> int -> int -> int
(** [find t s ident] is the tree index filed under [ident] in directory
    [s], or [-1]. *)

val fold : t -> int -> (int -> 'a -> 'a) -> 'a -> 'a
(** [fold t s f init] folds [f] over the tree indexes filed in
    directory [s], in ascending identifier order. *)
