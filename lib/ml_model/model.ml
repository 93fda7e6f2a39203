(** The portable optimising compiler's predictive model — section 3.3.2.

    Training keeps one (feature vector, fitted distribution) point per
    training program/microarchitecture pair.  Prediction for an unseen
    pair forms the predictive distribution q(y|x) as the softmax-weighted
    combination of the K nearest training distributions in normalised
    feature space (equation 6, K = 7, beta = 1) and returns its mode
    (equation 1). *)

type t = {
  k : int;
  beta : float;
  mask : bool array option;
      (** Optional feature subset, as the ablation's counters-only and
          descriptors-only rows train with: excluded features are
          dropped before normalisation. *)
  normaliser : Features.normaliser;
  features : float array array;  (** Normalised; one row per point. *)
  distributions : Distribution.t array;
      (** As given: shared where they are made ({!Distribution.share}),
          so one physical row per distinct row and one physical
          distribution per distinct distribution. *)
  knn : Knn.t;
      (** Neighbour index over [features], built whenever the model is
          assembled or loaded and shared by every prediction. *)
  tree : Vptree.node option;
      (** The VP-tree a version-2 artifact carried, written back
          unchanged by {!export}; [None] builds it there. *)
}

let default_k = 7
let default_beta = 1.0

let apply_mask mask row =
  match mask with
  | None -> row
  | Some m ->
    let out = ref [] in
    Array.iteri (fun i keep -> if keep then out := row.(i) :: !out) m;
    Array.of_list (List.rev !out)

let knn_of ~mask features =
  Knn.build
    ~prefix:(Features.shared_prefix ?mask (Array.length features.(0)))
    features

(** Assemble a model from raw training rows and their fitted
    distributions: fit the normaliser, normalise, group the rows for the
    neighbour search, keep the distributions as given.  This is the
    {e single} construction path —
    {!train} selects rows out of a dataset and [Registry.Refit] derives
    them from an evidence ledger, but both funnel through here, so the
    two ways of reaching the same (rows, distributions) produce
    bit-identical models. *)
let of_parts ?(k = default_k) ?(beta = default_beta) ?mask ~features_raw
    ~distributions () =
  let n = Array.length features_raw in
  if n = 0 then invalid_arg "Model.of_parts: empty training set";
  if Array.length distributions <> n then
    invalid_arg
      (Printf.sprintf "Model.of_parts: %d feature rows but %d distributions"
         n (Array.length distributions));
  let raw = Array.map (apply_mask mask) features_raw in
  let normaliser = Features.fit_normaliser raw in
  let features = Array.map (Features.normalise normaliser) raw in
  {
    k;
    beta;
    mask;
    normaliser;
    features;
    distributions;
    knn = knn_of ~mask features;
    tree = None;
  }

(** Train on all dataset pairs for which [include_pair] holds (the
    cross-validation harness excludes the test program and test
    microarchitecture here). *)
let train ?k ?beta ?mask ?(include_pair = fun ~prog:_ ~uarch:_ -> true)
    (d : Dataset.t) =
  let selected =
    Array.to_list d.Dataset.pairs
    |> List.filter (fun (p : Dataset.pair) ->
           include_pair ~prog:p.Dataset.prog_index ~uarch:p.Dataset.uarch_index)
    |> Array.of_list
  in
  if Array.length selected = 0 then invalid_arg "Model.train: empty training set";
  of_parts ?k ?beta ?mask
    ~features_raw:(Array.map (fun p -> p.Dataset.features_raw) selected)
    ~distributions:(Array.map (fun p -> p.Dataset.distribution) selected)
    ()

(** Full prediction (neighbours, mixture, mode) for raw features [x].
    The kNN/softmax math lives in {!Predict}; this is the single entry
    every consumer — cross-validation, CLI, server — funnels through. *)
let predict_full t x =
  let xn = Features.normalise t.normaliser (apply_mask t.mask x) in
  Predict.run_indexed ~k:t.k ~beta:t.beta ~index:t.knn
    ~distributions:t.distributions xn

(** Equation (1): predicted-best optimisation setting for raw features. *)
let predict t x = (predict_full t x).Predict.setting

(* ---- serialisable representation (model artifacts) ------------------- *)

type repr = {
  r_k : int;
  r_beta : float;
  r_mask : bool array option;
  r_normaliser : Features.normaliser;
  r_features : float array array;
  r_distributions : Distribution.t array;
  r_index : Vptree.node option;
      (** Frozen VP-tree shape.  {!export} always sets it; [None] (a
          version-1 artifact, or a hand-built repr) leaves the
          deterministic build to the next export. *)
}

let export t =
  {
    r_k = t.k;
    r_beta = t.beta;
    r_mask = t.mask;
    r_normaliser = t.normaliser;
    r_features = t.features;
    r_distributions = t.distributions;
    r_index =
      Some
        (match t.tree with
        | Some root -> root
        | None -> Vptree.build t.features);
  }

(** Validate a deserialised representation and rebuild the model.
    Checks every structural invariant a corrupt or hand-edited artifact
    could violate; the error strings surface verbatim from
    [Serve.Artifact.load]. *)
let import r =
  let fail fmt = Printf.ksprintf (fun m -> Error ("model: " ^ m)) fmt in
  let n = Array.length r.r_features in
  if r.r_k < 1 then fail "k must be >= 1 (got %d)" r.r_k
  else if not (Float.is_finite r.r_beta) then fail "beta must be finite"
  else if n = 0 then fail "no training points"
  else if Array.length r.r_distributions <> n then
    fail "%d feature rows but %d distributions" n
      (Array.length r.r_distributions)
  else begin
    let dim = Array.length r.r_features.(0) in
    let means, stds = r.r_normaliser in
    if Array.exists (fun row -> Array.length row <> dim) r.r_features then
      fail "ragged feature matrix"
    else if Array.length means <> dim || Array.length stds <> dim then
      fail "normaliser dimension %d does not match features (%d)"
        (Array.length means) dim
    else if Array.exists (fun m -> not (Float.is_finite m)) means then
      fail "non-finite normaliser mean"
    else if
      Array.exists (fun sd -> not (Float.is_finite sd) || sd <= 0.0) stds
    then fail "normaliser std must be finite and positive"
    else if
      Array.exists
        (fun row -> Array.exists (fun v -> not (Float.is_finite v)) row)
        r.r_features
    then fail "non-finite feature value"
    else begin
      let dist_err = ref None in
      Array.iteri
        (fun p (g : Distribution.t) ->
          if !dist_err = None then
            if Array.length g <> Passes.Flags.n_dims then
              dist_err :=
                Some
                  (Printf.sprintf
                     "distribution %d has %d dimensions (expected %d)" p
                     (Array.length g) Passes.Flags.n_dims)
            else
              Array.iteri
                (fun l row ->
                  let card = Passes.Flags.cardinality Passes.Flags.dims.(l) in
                  if !dist_err = None && Array.length row <> card then
                    dist_err :=
                      Some
                        (Printf.sprintf
                           "distribution %d dimension %d has %d values \
                            (expected %d)"
                           p l (Array.length row) card)
                  else if
                    !dist_err = None
                    && Array.exists
                         (fun v -> not (Float.is_finite v) || v < 0.0)
                         row
                  then
                    dist_err :=
                      Some
                        (Printf.sprintf
                           "distribution %d dimension %d has an invalid \
                            probability"
                           p l))
                g)
        r.r_distributions;
      match !dist_err with
      | Some m -> Error ("model: " ^ m)
      | None ->
        (match r.r_mask with
        | Some m when Array.length m <> Features.dim Features.Base
                      && Array.length m <> Features.dim Features.Extended ->
          fail "mask length %d matches no feature space" (Array.length m)
        | Some m
          when Array.fold_left (fun c keep -> if keep then c + 1 else c) 0 m
               <> dim ->
          fail "mask keeps a column count other than the features' %d" dim
        | _ -> (
          let tree =
            match r.r_index with
            | None -> Ok None
            | Some root -> Result.map Option.some (Vptree.of_root ~n root)
          in
          match tree with
          | Error m -> Error ("model: " ^ m)
          | Ok tree ->
            Ok
              {
                k = r.r_k;
                beta = r.r_beta;
                mask = r.r_mask;
                normaliser = r.r_normaliser;
                features = r.r_features;
                distributions = r.r_distributions;
                knn = knn_of ~mask:r.r_mask r.r_features;
                tree;
              }))
    end
  end

let n_points t = Array.length t.features
let k t = t.k
let beta t = t.beta
