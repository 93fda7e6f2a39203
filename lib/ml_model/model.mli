(** The portable optimising compiler's predictive model — section 3.3.2
    of the paper.

    Training keeps one (feature vector, fitted distribution) point per
    training program/microarchitecture pair.  Prediction for an unseen
    pair forms the predictive distribution q(y|x) as the softmax-weighted
    combination of the K nearest training distributions in normalised
    feature space (equation 6; K = 7, beta = 1 in the paper) and returns
    its mode (equation 1). *)

type t

val default_k : int
(** 7, as in the paper. *)

val default_beta : float
(** 1.0, as in the paper. *)

val of_parts :
  ?k:int ->
  ?beta:float ->
  ?mask:bool array ->
  features_raw:float array array ->
  distributions:Distribution.t array ->
  unit ->
  t
(** Assemble a model from raw (unnormalised) training rows and their
    fitted per-pair distributions: fit the z-score normaliser over the
    rows, normalise and group the rows for the neighbour search
    ({!Knn}).  The model keeps the very arrays of [distributions],
    which must therefore never be written.  Callers share them where
    they are made ({!Distribution.share}: a dataset's pairs, the
    registry's refit, an artifact's decoder), so a model holds one
    physical row per distinct row and one physical distribution per
    distinct distribution, and a cross-validation fold shares nothing
    again.  The single construction
    path shared by {!train} and the registry's incremental refit
    ([Registry.Refit]) — two callers presenting the same rows and
    distributions get bit-identical models.  Raises [Invalid_argument]
    on an empty or mismatched input. *)

val train :
  ?k:int ->
  ?beta:float ->
  ?mask:bool array ->
  ?include_pair:(prog:int -> uarch:int -> bool) ->
  Dataset.t ->
  t
(** [train dataset] builds the model from every dataset pair for which
    [include_pair] holds (the cross-validation harness excludes the test
    program and test microarchitecture there).  [mask] selects a feature
    subset, as the ablation's counters-only and descriptors-only rows
    do.  Features are z-score
    normalised against the selected training pairs, and the model's
    distributions are the dataset's own, shared, arrays.  Raises
    [Invalid_argument] if no pair is selected. *)

val predict_full : t -> float array -> Predict.result
(** Full prediction — nearest neighbours, mixture distribution and its
    mode — for {e raw} (unnormalised) features [x].  The single shared
    kNN/softmax implementation ({!Predict}) behind {!predict},
    cross-validation and the prediction server; the neighbours come from
    the model's {!Knn} index, bit-identical to {!Predict.neighbours}. *)

val predict : t -> float array -> Passes.Flags.setting
(** Equation (1): the mode of the predictive distribution — the
    predicted-best optimisation setting for the pair described by [x]. *)

(** {2 Serialisable representation}

    The exact training state, exposed so [Serve.Artifact] can freeze a
    trained model to disk and reload it bit-identically. *)

type repr = {
  r_k : int;
  r_beta : float;
  r_mask : bool array option;
  r_normaliser : Features.normaliser;
  r_features : float array array;  (** Normalised rows, one per pair. *)
  r_distributions : Distribution.t array;
  r_index : Vptree.node option;
      (** Frozen VP-tree shape.  {!export} always sets it: a loaded
          tree is written back unchanged, and a model without one (newly
          trained, or imported from a version-1 artifact, where this is
          [None]) builds it — deterministically, so the bytes are those
          of every earlier build. *)
}

val export : t -> repr

val import : repr -> (t, string) result
(** Validate every structural invariant (shapes, cardinalities against
    {!Passes.Flags.dims}, finite features, a finite normaliser mean and
    a finite positive std, a mask keeping as many columns as the rows
    have, a tree holding every row once) and rebuild the model; the
    error, prefixed ["model: "], carries a human-readable reason for
    artifact-load diagnostics.  Every row is checked, shared or not.
    The distributions are kept as given: [Serve.Artifact.read] has
    shared them ({!Distribution.share}) while decoding. *)

val n_points : t -> int
(** Training pairs retained (rows of the feature matrix). *)

val k : t -> int
val beta : t -> float
