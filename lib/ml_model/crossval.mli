(** Leave-one-out cross-validation — section 5.1.1 of the paper.

    For every program/microarchitecture pair, a model is trained on the
    pairs involving {e neither} the test program {e nor} the test
    configuration, asked for the best setting from the test pair's -O3
    features, and the prediction is compiled, interpreted and timed on
    the test configuration. *)

type outcome = {
  prog : int;
  uarch : int;
  predicted : Passes.Flags.setting;
  o3_seconds : float;
  predicted_seconds : float;
  best_seconds : float;
      (** Best sampled setting — the iterative-compilation upper bound of
          section 5.1.2. *)
}

val speedup : outcome -> float
(** Model speedup over -O3. *)

val best_speedup : outcome -> float
(** Iterative-compilation speedup over -O3. *)

val fraction_of_best : outcome array -> float
(** The paper's 67% metric:
    (mean model speedup - 1) / (mean best speedup - 1). *)

type predict =
  include_pair:(prog:int -> uarch:int -> bool) ->
  prog:int ->
  uarch:int ->
  Passes.Flags.setting
(** A fold's predictor: the setting predicted for the held-out pair
    ([prog], [uarch]) by a model trained on the pairs [include_pair]
    admits. *)

val run :
  ?pool:Prelude.Pool.t ->
  ?backend:Dataset.backend ->
  ?progress:(string -> unit) ->
  ?predict:predict ->
  Dataset.t ->
  outcome array
(** One outcome per dataset pair, in row-major pair order: the one
    leave-one-out loop, behind the summary, the figures, the ablations
    and [portopt crossval].

    For each held-out pair, [predict ~include_pair ~prog ~uarch] returns
    the predicted setting; [include_pair] holds for exactly the pairs
    involving neither [prog] nor [uarch], the fold's training set.  The
    default trains [Model.train ~include_pair d] and predicts from the
    held-out pair's features; each ablation row passes its own
    [predict] and runs on a copy of [d] with its good sets refit.

    Every fold is predicted first, fanned out over [pool] (default: the
    shared [Prelude.Pool] sized by [REPRO_JOBS]).  Each program's
    distinct predicted settings, by canonical form in fold order, then
    form one grid for {!Dataset.profile} with [backend], so every
    setting is profiled once, by one domain or one evaluator call.
    Last, every prediction is priced on its held-out pair from those
    runs, over the pool again.  The outcomes are bit-identical at any
    job count and with either backend, and [progress] is serialised. *)
