(** IID multinomial distributions over optimisation settings —
    equations (2)–(5) of the paper.

    A distribution assigns, independently per optimisation dimension, a
    probability to each of its possible values:
    g(y) = prod_l g(y_l), each g(y_l) multinomial over the dimension's
    value set S_l. *)

type t = float array array
(** [t.(l).(j)] = probability that dimension [l] takes value index [j].
    Rows sum to 1.

    {b Rows are never written after construction.}  A model holds one
    physical row per distinct row and one physical distribution per
    distinct distribution ({!share}), so a write into a row would
    change every pair that holds it.  The only writes in this module
    go into arrays just allocated: {!mix}'s result rows and a
    {!counts} matrix, which [Registry.Refit] keeps apart from every
    distribution ({!of_counts} divides into fresh rows). *)

val uniform : unit -> t
(** The maximum-entropy distribution (used when a good set is empty). *)

val fit : ?alpha:float -> Passes.Flags.setting array -> t
(** Maximum-likelihood fit (equation 5) against the uniform empirical
    distribution over the given good settings: theta_(l,j) is the
    frequency of value [j] among the settings' l-th components.  [alpha]
    adds Laplace smoothing (default 0, the paper's plain estimator). *)

(** {2 Sufficient statistics}

    The multinomial's sufficient statistic is the per-dimension value
    count matrix.  Counts are small integers held as floats (exact up
    to 2^53), so folding good sets incrementally and normalising once
    at the end — [of_counts] after any number of [add_counts] — is
    {e bit-identical} to one [fit] over the concatenated multiset.
    This identity is what lets [Registry.Refit] extend a trained model
    with fresh evidence without retraining from scratch. *)

type counts = float array array
(** [counts.(l).(j)] = occurrences of value [j] on dimension [l]. *)

val counts : ?alpha:float -> unit -> counts
(** A fresh count matrix shaped by {!Passes.Flags.dims}, every cell at
    [alpha] (default 0). *)

val add_counts : counts -> Passes.Flags.setting array -> unit
(** Fold a batch of good settings into the counts, in array order. *)

val of_counts : counts -> t
(** Normalise each dimension's counts into probabilities — the single
    division of {!fit}.  A zero-mass dimension yields the uniform row,
    matching [fit]'s empty-good-set behaviour. *)

val mix : (float * t) list -> t
(** Convex combination with the given (non-negative, renormalised)
    weights — the K-nearest-neighbour mixture of equation (6).  Raises
    [Invalid_argument] on an empty list or non-positive total weight. *)

(** {2 Sharing} *)

type sharing
(** The distinct rows and distributions {!share} has seen. *)

val sharing : unit -> sharing

val share : sharing -> t -> t
(** [share s g] is the first distribution [s] has seen with the bits of
    [g]; a distribution not seen before is [g] with each row replaced
    by the first row of equal bits that [s] has seen.  Sharing every
    distribution of a model through one [s] leaves one physical row per
    distinct row and one physical distribution per distinct
    distribution; the values, hence every prediction, are unchanged.
    Lookups are bounded ({!Obs.Intern}), so a hostile model cannot make
    sharing quadratic. *)

val distinct : sharing -> int * int
(** The distinct rows and distinct distributions seen so far. *)

val mode : t -> Passes.Flags.setting
(** Equation (1): the setting of maximal probability, i.e. the
    per-dimension argmax under the IID factorisation.  Ties resolve to
    the lowest index, keeping predictions deterministic. *)

val log_likelihood : t -> Passes.Flags.setting -> float
(** Log-probability of a setting (probabilities floored at 1e-12). *)

val sample : Prelude.Rng.t -> t -> Passes.Flags.setting
(** Draw one setting. *)
