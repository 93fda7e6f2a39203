(** The kNN/softmax prediction core — equations (1) and (6) of the
    paper, factored out so cross-validation, the CLI and the prediction
    server share one implementation (reached through {!Model}).

    Operates on the model's internal representation: a matrix of
    normalised training feature rows (directly, or through the model's
    {!Knn} index) and the parallel array of fitted per-pair
    distributions. *)

type neighbour = {
  index : int;  (** Row into the training matrix / distribution array. *)
  distance : float;  (** Euclidean distance in normalised feature space. *)
  weight : float;
      (** Unnormalised softmax weight exp(-beta (d - dmin)) of
          equation (6); divide by the weights' sum for a display
          share.  Kept unnormalised so {!Distribution.mix} reproduces
          the historical float-operation order bit-for-bit. *)
}

type result = {
  neighbours : neighbour array;  (** Sorted by distance, nearest first. *)
  distribution : Distribution.t;  (** The predictive q(y|x) of eq. (6). *)
  setting : Passes.Flags.setting;  (** Its mode — equation (1). *)
}

val neighbours :
  k:int -> beta:float -> float array array -> float array -> neighbour array
(** [neighbours ~k ~beta points xn] — the [min k n] training rows
    nearest to the {e normalised} query [xn], nearest first, ties
    broken on the lower row index (explicit [Float.compare]-then-index
    comparator).  The full-sort reference the {!Knn} search is tested
    against; raises [Invalid_argument] when [points] is empty. *)

val mixture : neighbour array -> Distribution.t array -> Distribution.t
(** Softmax-weighted convex combination of the neighbours'
    distributions (equation 6). *)

val run :
  k:int ->
  beta:float ->
  points:float array array ->
  distributions:Distribution.t array ->
  float array ->
  result
(** Full prediction for a normalised query point (reference sort). *)

val run_indexed :
  k:int ->
  beta:float ->
  index:Knn.t ->
  distributions:Distribution.t array ->
  float array ->
  result
(** Full prediction through the {!Knn} index — bit-identical to {!run}
    over the rows the index was built from. *)
