(** LRU stack-distance (reuse-distance) analysis.

    The simulator follows the classic trace-once/model-many decoupling: the
    interpreter records one address trace per compiled binary, this module
    condenses it into a stack-distance histogram per cache-block granularity,
    and {!module:Sim.Cache} then evaluates the histogram against any cache
    size/associativity in microseconds.

    Stack distance of an access = number of {e distinct} other blocks touched
    since the previous access to the same block.  A fully-associative LRU
    cache of capacity [c] blocks misses exactly on accesses with distance
    [>= c] (plus cold misses).  Two set-associative mappings are provided:
    the Hill–Smith binomial model ({!miss_fraction}) for hash-like streams
    (BTB branch sites), and a sequential-layout capacity model
    ({!miss_fraction_capacity}) for code and array streams, whose addresses
    map round-robin onto sets and therefore do not conflict below capacity.

    Histograms are stored sparsely with ~6% geometric quantisation of large
    distances, bounding each histogram to a few hundred entries regardless
    of trace length. *)

type histogram = {
  entries : (int * int) array;
      (** Sorted [(distance, count)] pairs; distances above
          {!quantise_threshold} are representative values of geometric
          buckets. *)
  cold : int;  (** First-touch accesses (compulsory misses). *)
  total : int;  (** Total accesses, including cold. *)
}

val empty : histogram

val quantise_threshold : int
(** Distances up to this value are kept exact. *)

val bucket : int -> int
(** Representative distance a raw stack distance is stored under:
    identity up to {!quantise_threshold}, the nearest ~6% geometric
    bucket representative above it.  Exposed for boundary testing. *)

val histogram_of_blocks : int array -> histogram
(** [histogram_of_blocks trace] computes the stack-distance histogram of a
    trace of block identifiers, in O(n log n). *)

val blocks_of_addresses : block_bytes:int -> int array -> int array
(** Map byte addresses to cache-block identifiers.  [block_bytes] must be a
    power of two. *)

val histogram_of_addresses : block_bytes:int -> int array -> histogram

val merge : histogram -> histogram -> histogram
(** Pointwise sum of two histograms. *)

val binomial_tail_ge : n:int -> p:float -> k:int -> float
(** [P(X >= k)] for [X ~ Binomial(n, p)], numerically guarded.  Exposed for
    testing. *)

val miss_fraction : histogram -> sets:int -> ways:int -> float
(** Expected miss ratio in a [sets]-set, [ways]-way LRU cache under random
    (binomial) set placement.  Cold misses always miss.  [sets = 1] is the
    exact fully-associative result. *)

val expected_misses : histogram -> sets:int -> ways:int -> float

val miss_fraction_capacity :
  histogram -> capacity_blocks:int -> ways:int -> float
(** Miss ratio under the sequential-layout capacity model: no conflict
    misses below capacity; misses ramp in linearly over a band around the
    capacity that narrows as associativity grows. *)

val expected_misses_capacity :
  histogram -> capacity_blocks:int -> ways:int -> float
