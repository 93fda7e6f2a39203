(** The kNN/softmax prediction core — equations (1) and (6).

    One implementation of the paper's predictive step, shared by the
    cross-validation harness, the CLI and the prediction server (via
    {!Model}): find the K nearest training points in normalised feature
    space, weight their fitted distributions with the softmax of
    equation (6), mix, and take the mode of equation (1).

    Weights are kept {e unnormalised} (exp(-beta (d - dmin)), exactly
    as the historical in-model implementation produced them) and
    normalisation is left to {!Distribution.mix} — this keeps every
    float operation in the same order, so predictions stay bit-identical
    to the pre-refactor code path.

    The model searches its {!Knn} index; {!neighbours} is the full-sort
    reference.  Both rank candidates under the same (distance, then
    index) total order and accumulate every distance in the same order,
    so their results — and therefore the predictions built from them —
    are bit-identical; the property tests enforce this on every tested
    query. *)

type neighbour = {
  index : int;  (** Row into the training matrix / distribution array. *)
  distance : float;  (** Euclidean distance in normalised feature space. *)
  weight : float;
      (** Unnormalised softmax weight exp(-beta (d - dmin)); divide by
          the weights' sum for a display share. *)
}

type result = {
  neighbours : neighbour array;  (** Sorted by distance, nearest first. *)
  distribution : Distribution.t;  (** The predictive q(y|x) of eq. (6). *)
  setting : Passes.Flags.setting;  (** Its mode — equation (1). *)
}

(** K nearest rows of [points] to the (already normalised) query [xn] —
    the row-matrix reference implementation the {!Knn} search is tested
    against.  The sort tie-breaks on index with an explicit
    [Float.compare]-then-index comparator: the order the historical
    polymorphic [compare] on [(float, int)] tuples produced on finite
    data, minus the NaN hazard and the boxing. *)
let neighbours ~k ~beta (points : float array array) xn =
  let n = Array.length points in
  if n = 0 then invalid_arg "Predict.neighbours: no training points";
  let dist = Array.init n (fun i -> (Features.distance points.(i) xn, i)) in
  Array.sort
    (fun (d1, i1) (d2, i2) ->
      let c = Float.compare d1 d2 in
      if c <> 0 then c else Int.compare i1 i2)
    dist;
  let k = min k n in
  let sel = Array.sub dist 0 k in
  (* Shift by the minimum distance for numerical stability; the shift
     cancels in Distribution.mix's normalisation. *)
  let dmin = fst sel.(0) in
  Array.map
    (fun (d, i) -> { index = i; distance = d; weight = exp (-.beta *. (d -. dmin)) })
    sel

(** The softmax-weighted mixture of the neighbours' distributions. *)
let mixture ns (distributions : Distribution.t array) =
  Distribution.mix
    (Array.to_list
       (Array.map (fun nb -> (nb.weight, distributions.(nb.index))) ns))

let result_of ns distributions =
  let distribution = mixture ns distributions in
  { neighbours = ns; distribution; setting = Distribution.mode distribution }

(** Full prediction for a normalised query point (reference scan over
    the row matrix). *)
let run ~k ~beta ~points ~distributions xn =
  result_of (neighbours ~k ~beta points xn) distributions

(** Full prediction through the {!Knn} index: identical math as {!run},
    with the neighbour search delegated to {!Knn.search}. *)
let run_indexed ~k ~beta ~index ~distributions xn =
  let idxs, dists = Knn.search index ~k xn in
  let dmin = dists.(0) in
  let ns =
    Array.mapi
      (fun j i ->
        let d = dists.(j) in
        { index = i; distance = d; weight = exp (-.beta *. (d -. dmin)) })
      idxs
  in
  result_of ns distributions
