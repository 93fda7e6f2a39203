(** Training-data generation — section 3.2 of the paper.

    For every program, one binary is compiled and interpreted per sampled
    optimisation setting (plus the -O3 baseline); every
    program/microarchitecture pair then prices all those profiles with
    the timing model, selects the good set (top [good_fraction], 5% in
    the paper's footnote 1) and fits the pair's IID multinomial
    distribution.

    The expensive step — interpretation — is shared across
    microarchitectures, so the paper's 35 x 200 x 1000 = 7M simulations
    reduce to 35 x 1001 interpreted runs plus 7M microsecond-scale model
    evaluations. *)

type scale = {
  n_uarchs : int;  (** Configurations sampled (paper: 200). *)
  n_opts : int;  (** Optimisation settings sampled (paper: 1000). *)
  seed : int;
  space : Features.space;
  good_fraction : float;  (** Top fraction forming the good set (0.05). *)
}

val default_scale : ?space:Features.space -> unit -> scale
(** Defaults 24/120/42, overridable through the [REPRO_UARCHS],
    [REPRO_OPTS] and [REPRO_SEED] environment variables. *)

type pair = {
  prog_index : int;
  uarch_index : int;
  features_raw : float array;  (** Unnormalised x = (c, d) at -O3. *)
  o3_seconds : float;
  times : float array;  (** Seconds per sampled setting. *)
  best : int;  (** Index of the fastest sampled setting. *)
  best_seconds : float;
  good : int array;  (** Indices of the good set e_Y. *)
  distribution : Distribution.t;
      (** Fitted per equation (5), and shared: across a dataset's pairs,
          rows of equal bits are one array and distributions of equal
          bits one distribution ({!Distribution.share}).  Every function
          here that makes pairs keeps this so. *)
  front : Objective.Front.t option;
      (** Pareto front over the sampled settings' objective vectors;
          [Some] only under [Objective.Spec.Pareto]. *)
}

type t = {
  scale : scale;
  objective : Objective.Spec.t;
      (** What the good sets (and hence distributions) optimise.  The
          default [Cycles] reproduces the paper's pipeline
          bit-identically. *)
  specs : Workloads.Spec.t array;
  uarchs : Uarch.Config.t array;
  settings : Passes.Flags.setting array;  (** Shared across pairs. *)
  o3_runs : Sim.Xtrem.run array;
  runs : Sim.Xtrem.run array array;  (** [runs.(prog).(setting)]. *)
  pairs : pair array;  (** Row-major: [prog * n_uarchs + uarch]. *)
  prog_digests : string array;  (** [Store.program_digest] per program. *)
  cache : Store.Profile_cache.t;
      (** Two-tier (bounded RAM + optional disk) profile cache shared
          across domains. *)
}

type backend =
  | In_process
      (** Interpret locally over the domain pool (the default). *)
  | Offload of
      ((Workloads.Spec.t * Passes.Flags.setting array) array ->
       Sim.Xtrem.run array array)
      (** Delegate the whole interpretation grid to an external
          evaluator (the cluster coordinator, in practice): called once
          with every (program, settings-to-profile) group, it must
          return runs in request order, each carrying the requested
          setting.  The function type keeps the dependency arrow
          pointing downward — this library knows nothing of sockets. *)

val profile :
  pool:Prelude.Pool.t ->
  backend:backend ->
  cache:Store.Profile_cache.t ->
  progress:(string -> unit) ->
  Workloads.Spec.t array ->
  Passes.Flags.setting array array ->
  (string * Sim.Xtrem.run array) array
(** [profile ~pool ~backend ~cache ~progress specs grid] profiles a
    request grid: [grid.(i)] lists the settings wanted for program
    [specs.(i)], and entry [i] of the result is that program's
    {!Store.program_digest} and its runs in request order.  The one
    profiling path, behind both {!generate} and {!Crossval.run}.

    [In_process] runs one [pool] task per program, which resolves its
    settings in order through [cache]: no two domains ever resolve one
    key, so each key is interpreted at most once and a cold store ends
    up the same at any job count.  [Offload f] hands [f] the whole grid
    in one call and preloads [cache] (and its disk store) with the
    returned runs.  Either way every run of a program must carry the
    checksum of the program's first run, or [Failure] reports a
    miscompilation; a backend that returns the wrong number of runs
    fails too.  Each program emits a [dataset.program] event and a
    [profiled] progress tick. *)

val generate :
  ?store:Store.t ->
  ?pool:Prelude.Pool.t ->
  ?backend:backend ->
  ?objective:Objective.Spec.t ->
  ?progress:(string -> unit) ->
  scale ->
  t
(** Build the dataset: {!profile} the -O3 baseline followed by the
    sampled settings for every program, then price every pair.  The -O3
    run is each program's first, so a sampled setting whose checksum
    differs raises [Failure] (a miscompilation).  Profiling and pricing
    fan out over [pool] (default: the shared [Prelude.Pool] sized by
    [REPRO_JOBS]); results are bit-identical at any job count, and
    [progress] is serialised so it never runs concurrently.

    With [store], every profile is resolved through the
    content-addressed store first: a warm store rebuilds the dataset
    bit-identically with {e zero} interpreter runs, and a cold run
    writes every profile back for the next process.  With
    [backend = Offload f], [f] interprets the grid instead of the local
    pool; pricing, good sets and distributions are computed locally
    either way, so the artifact cannot depend on who evaluated the
    profiles. *)

val n_programs : t -> int
val n_uarchs : t -> int

val pair : t -> prog:int -> uarch:int -> pair

val best_speedup : pair -> float
(** Best sampled speedup over -O3 — the iterative-compilation bound. *)

val good_set : good_fraction:float -> float array -> int array
(** Indices of the fastest [good_fraction] of a time vector (at least
    one), used when refitting under a different threshold.  Equal
    values at the cut are admitted by ascending index — a deterministic
    tie-break independent of sort order. *)

val with_objective : ?pool:Prelude.Pool.t -> t -> Objective.Spec.t -> t
(** Re-price every pair (good sets, distributions, fronts) under a
    different objective from the already-interpreted runs — zero
    recompiles and zero interpretations.  Round-tripping back to the
    dataset's own objective returns it unchanged. *)

val with_good_fraction : t -> float -> t
(** [with_good_fraction d f] refits every pair's good set from its
    times at [f] ({!good_set}) and its distribution to that good set,
    so the ablation can vary the threshold without pricing anything
    again.  The scale records [f]. *)

val run_for : t -> prog:int -> Passes.Flags.setting -> Sim.Xtrem.run
(** Profile of [prog] under an arbitrary setting, cached by canonical
    (semantic) form — how {!evaluate} and {!evaluate_vector} price
    settings outside the sample without recompiling duplicates. *)

val evaluate : t -> prog:int -> uarch:int -> Passes.Flags.setting -> float
(** Seconds of [prog] under a setting on configuration [uarch]. *)

val evaluate_vector :
  t -> prog:int -> uarch:int -> Passes.Flags.setting -> float array
(** Objective vector ([cycles; size; energy]) of [prog] under a setting
    on configuration [uarch], through the same profile cache. *)

val provenance_digests : t -> string * string * string
(** [(programs, settings, uarchs)] combined digests of the generation
    inputs, recorded in saved model artifacts for provenance. *)
