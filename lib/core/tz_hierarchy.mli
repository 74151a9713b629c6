(** The Thorup–Zwick hierarchy [30], shared by every TZ-family
    structure in the library: the labeled routing baseline
    ({!Baseline_tz}), the path-reporting oracle and the [rt] scheme
    built on it ([Cr_oracle]).

    Levels [A₀ = V ⊇ A₁ ⊇ … ⊇ A_{k−1}] are sampled with probability
    [n^{−1/k}] per level; [p_j(u)] is the closest [A_j] node (ties to
    the lower index); the bunch of [u] is
    [B(u) = ∪_j {w ∈ A_j \ A_{j+1} : d(u,w) < d(u, p_{j+1}(u))}].

    The hierarchy fixes pivots and bunch radii.  Bunch membership
    takes the distance from the caller, because consumers price
    [d(u,w)] from different shortest-path trees and the two readings
    are not bitwise equal on weighted graphs (DESIGN.md, "One TZ
    substrate"): {!bunches} prices from SPT(u), the path oracle from
    SPT(w). *)

type t

(** {1 Level samplers}

    Both return [level.(v)], the highest [j] with [v ∈ A_j], and
    promote node 0 to level [k − 1] when the draw leaves [A_{k−1}]
    empty. *)

val sample_per_node : seed:int -> n:int -> k:int -> int array
(** One stream per node index, so adding node [n] leaves the levels of
    nodes [0 … n−1] unchanged — the incremental-rebuild comparison of
    experiment T9 relies on it. *)

val sample_stream : seed:int -> n:int -> k:int -> int array
(** One stream for all nodes, drawn in index order: the oracles'
    sampler. *)

(** {1 Hierarchy} *)

val create : Cr_graph.Apsp.t -> k:int -> level:int array -> t
(** Pivots and pivot distances for every node, priced from SPT(u).
    @raise Invalid_argument if [k < 1]. *)

val k : t -> int

val pivot : t -> int -> int -> int
(** [pivot t u j] is [p_j(u)], or [-1] when no [A_j] node is
    reachable from [u]. *)

val bunch_radius : t -> int -> float array
(** The bunch-membership test, one witness at a time:
    [w ∈ B(u)] iff [d < (bunch_radius t w).(u)] for the caller's
    pricing [d] of [d(u,w)].  The row holds [d(u, p_{level w + 1}(u))]
    for every [u] ([infinity] at the top level, so [d = infinity] is
    never a member).  Handing out a row rather than testing one pair
    per call keeps distances unboxed in per-pair loops in other
    modules.  Shared; do not mutate. *)

(** {1 Row-priced bunches and the distance query} *)

type bunches
(** [B(u)] for every [u], each member stored with [d(u,w)] read from
    SPT(u). *)

val bunches : Cr_graph.Apsp.t -> t -> bunches

val mem : bunches -> int -> int -> bool
(** [mem b u w] is [w ∈ B(u)]. *)

val node_entries : bunches -> int -> int

val size_entries : bunches -> int
(** Total bunch entries — expected [O(k · n^{1+1/k})]. *)

type 'e meet = {
  active : int;  (** the endpoint whose pivot landed *)
  other : int;  (** the endpoint whose bunch holds the witness *)
  level : int;  (** the level [j] of the landing pivot *)
  witness : int;  (** [w = p_j(active)] *)
  active_dist : float;  (** [d(active, w)], the pivot distance *)
  entry : 'e;  (** [other]'s bunch entry for [w] *)
}

val alternate :
  ?trace:Cr_obs.Trace.sink -> t -> (int -> int -> 'e option) -> int -> int -> 'e meet option
(** [alternate t find u v] is the classic alternating walk: probe
    [w = p_j(x)] in the bunch of [y] with [find y w], and on a miss
    swap [x] and [y] and climb one level.  The walk starts from
    [x = min u v]: the raw alternation is not symmetric ([u ∈ B(v)]
    does not imply [v ∈ B(u)]), and an estimate should not depend on
    who asks.  [None] when no level lands (disconnected endpoints).
    With [trace], emits one [Bunch_probe] per level probed.  Callers
    handle [u = v] themselves. *)

val query : t -> bunches -> int -> int -> float
(** The TZ distance query over {!bunches}: [d(x,w) + d(y,w)] at the
    landing level.  [0.] when [u = v], [infinity] for disconnected
    pairs, within a factor [2k − 1] of the true distance, and symmetric
    ([query t b u v = query t b v u] exactly). *)

val stretch_bound : t -> float
(** [2k − 1]. *)
