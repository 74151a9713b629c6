(** Deterministic pseudo-random number generation.

    A small, fast, splittable PRNG (splitmix64) used everywhere in the
    library instead of [Stdlib.Random], so that every construction —
    landmark sampling, hash tables, graph generation — is reproducible
    from a single seed.  This stands in for the de-randomization via
    conditional probabilities used in the paper (§2.3): a fixed seed gives
    a fixed scheme, and the probabilistic claims are checked empirically. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val keyed : seed:int -> index:int -> salt:int -> t
(** [keyed ~seed ~index ~salt] is a fresh stream for decision [salt]
    of item [index] under a run's [seed]: the derivation behind every
    replayable per-query, per-attempt or per-lane fault draw.  It is
    [create (seed * 1_000_003 + index * 8191 + salt)]; streams for
    nearby keys are independent because [create] mixes its seed. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of the
    remainder of [t]'s stream; [t] is advanced. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t m n] draws [m] distinct values from
    [\[0, n)], in random order.  Requires [m <= n]. *)
