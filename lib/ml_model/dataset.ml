(** Training-data generation — section 3.2.

    For every program we compile and interpret one binary per sampled
    optimisation setting (plus the -O3 baseline); for every
    program/microarchitecture pair we then price all those profiles with
    the timing model, select the good set e_Y (top [good_fraction] of the
    sampled settings, 5% in the paper) and fit the pair's IID multinomial
    distribution.

    The expensive step — interpretation — is shared across all
    microarchitectures, so the paper's 35 x 200 x 1000 = 7M simulations
    reduce to 35 x 1001 interpreted runs plus 7M microsecond-scale model
    evaluations.  Scale is environment-tunable:

    - [REPRO_UARCHS]  microarchitectures sampled (default 24, paper 200)
    - [REPRO_OPTS]    optimisation settings sampled (default 120, paper 1000)
    - [REPRO_SEED]    sampling seed (default 42)
    - [REPRO_JOBS]    worker domains (default: recommended count; 1 = serial)

    The [settings] sample is shared by every pair, matching the uniform
    random sampling protocol of section 4.3.  Generation fans the
    per-program profiling ([profile], which cross-validation shares)
    and the per-pair pricing over a [Prelude.Pool]; both loops are
    index-pure, so the result is bit-identical at any [REPRO_JOBS]. *)

open Prelude

type scale = {
  n_uarchs : int;
  n_opts : int;
  seed : int;
  space : Features.space;
  good_fraction : float;
}

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt s with
    | Some v when v > 0 -> v
    | _ -> invalid_arg (Printf.sprintf "%s must be a positive integer" name)
  )
  | None -> default

let default_scale ?(space = Features.Base) () =
  {
    n_uarchs = env_int "REPRO_UARCHS" 24;
    n_opts = env_int "REPRO_OPTS" 120;
    seed = env_int "REPRO_SEED" 42;
    space;
    good_fraction = 0.05;
  }

type pair = {
  prog_index : int;
  uarch_index : int;
  features_raw : float array;  (** Unnormalised x = (c, d). *)
  o3_seconds : float;
  times : float array;  (** Seconds per sampled setting. *)
  best : int;  (** Index of the fastest sampled setting. *)
  best_seconds : float;
  good : int array;  (** Indices of the good set e_Y. *)
  distribution : Distribution.t;
  front : Objective.Front.t option;
      (** Pareto front over the sampled settings' objective vectors;
          [Some] only under [Objective.Spec.Pareto]. *)
}

type t = {
  scale : scale;
  objective : Objective.Spec.t;
  specs : Workloads.Spec.t array;
  uarchs : Uarch.Config.t array;
  settings : Passes.Flags.setting array;
  o3_runs : Sim.Xtrem.run array;  (** Per program. *)
  runs : Sim.Xtrem.run array array;  (** [runs.(prog).(setting)]. *)
  pairs : pair array;  (** Row-major: prog * n_uarchs + uarch. *)
  prog_digests : string array;
      (** [Store.program_digest] per program, computed once during
          generation so later lookups never re-render the IR. *)
  cache : Store.Profile_cache.t;
      (** Two-tier profile cache (bounded RAM LRU over the optional
          disk store) that generation, cross-validation and [run_for]
          all resolve through. *)
}

let n_programs t = Array.length t.specs
let n_uarchs t = Array.length t.uarchs

let pair t ~prog ~uarch = t.pairs.((prog * n_uarchs t) + uarch)

(** Best speedup over -O3 among the sampled settings for a pair. *)
let best_speedup p = p.o3_seconds /. p.best_seconds

let good_set ~good_fraction times =
  let n = Array.length times in
  let order = Array.init n Fun.id in
  (* Equal times straddling the cut must be admitted by index, not by
     whatever order the unstable sort left them in — the boundary is
     reachable (distinct settings can canonicalise to the same
     binary). *)
  Array.sort
    (fun a b ->
      match Float.compare times.(a) times.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let k = max 1 (int_of_float (Float.round (good_fraction *. float_of_int n))) in
  Array.sub order 0 k

let m_pairs = Obs.Metrics.counter "dataset.pairs"

(* How many non-dominated settings a pareto pair keeps: enough for a
   non-trivial front even at smoke scales, crowding-pruned above. *)
let pareto_capacity = 16

(* Static post-pipeline instruction count of a run; recompiles only when
   the run predates store record v2 (which persists the size). *)
let run_size ~program r =
  match r.Sim.Xtrem.size with
  | Some s -> s
  | None ->
    Ir.Types.program_size
      (Passes.Driver.compile ~setting:r.Sim.Xtrem.setting
         (Lazy.force program))

(* Per-program (o3 size, per-setting sizes), materialised only for
   non-default objectives — the default cycles path never looks at
   sizes, keeping it bit-identical to the pre-objective code. *)
let static_sizes ~specs ~o3_runs runs =
  Array.mapi
    (fun pi rs ->
      let program = lazy (Workloads.Mibench.program_of specs.(pi)) in
      (run_size ~program o3_runs.(pi), Array.map (run_size ~program) rs))
    runs

(* One (program, uarch) pair: price every sampled run, pick the good set
   under [objective] and fit the pair's distribution.  Index-pure, so
   the pricing fan-out is bit-identical at any job count. *)
let price_pair ~objective ~space ~good_fraction ~sizes ~uarchs ~settings
    ~o3_runs ~runs ~share ~parent idx =
  let n_uarchs = Array.length uarchs in
  let prog_index = idx / n_uarchs in
  let uarch_index = idx mod n_uarchs in
  let t0 = Obs.Clock.now_s () in
  let u = uarchs.(uarch_index) in
  let o3_verdict = Sim.Xtrem.time o3_runs.(prog_index) u in
  let times =
    Array.map
      (fun r -> (Sim.Xtrem.time r u).Sim.Pipeline.seconds)
      runs.(prog_index)
  in
  let best = ref 0 in
  Array.iteri (fun i s -> if s < times.(!best) then best := i) times;
  let good, front =
    match (objective : Objective.Spec.t) with
    | Cycles -> (good_set ~good_fraction times, None)
    | spec ->
      let o3_size, setting_sizes = sizes.(prog_index) in
      let vectors =
        Array.mapi
          (fun i r -> Objective.Spec.vector r ~size:setting_sizes.(i) u)
          runs.(prog_index)
      in
      (match spec with
      | Pareto ->
        let front =
          Objective.Front.create ~capacity:pareto_capacity
            ~dims:Objective.Spec.dims ()
        in
        Array.iteri
          (fun i v -> ignore (Objective.Front.insert front ~index:i ~score:v))
          vectors;
        (Objective.Front.indices front, Some front)
      | spec ->
        let baseline =
          Objective.Spec.vector o3_runs.(prog_index) ~size:o3_size u
        in
        let scalars = Array.map (Objective.Spec.scalar spec ~baseline) vectors in
        (good_set ~good_fraction scalars, None))
  in
  let good_settings = Array.map (fun i -> settings.(i)) good in
  Obs.Metrics.add m_pairs 1;
  Obs.Span.event ~level:Obs.Trace.Debug ~parent "dataset.pair"
    [
      ("prog", Obs.Json.Int prog_index);
      ("uarch", Obs.Json.Int uarch_index);
      ("dur_s", Obs.Json.Float (Obs.Clock.now_s () -. t0));
    ];
  Option.iter
    (fun f ->
      Obs.Span.event ~level:Obs.Trace.Debug ~parent "objective.front"
        [
          ("prog", Obs.Json.Int prog_index);
          ("uarch", Obs.Json.Int uarch_index);
          ("front", Objective.Front.to_json f);
        ])
    front;
  {
    prog_index;
    uarch_index;
    features_raw = Features.raw space o3_verdict.Sim.Pipeline.counters u;
    o3_seconds = o3_verdict.Sim.Pipeline.seconds;
    times;
    best = !best;
    best_seconds = times.(!best);
    good;
    distribution = share (Distribution.fit good_settings);
    front;
  }

(* Every distribution of a pricing fan-out passes through one sharing as
   it is fitted, so an unshared one dies young.  [finish] reports what
   was shared. *)
let sharing () =
  let s = Distribution.sharing () and lock = Mutex.create () in
  let share g = Mutex.protect lock (fun () -> Distribution.share s g) in
  let finish (pairs : pair array) =
    let distinct_rows, distinct_distributions = Distribution.distinct s in
    Obs.Span.event "dataset.shared"
      [
        ( "rows",
          Obs.Json.Int
            (Array.fold_left
               (fun n p -> n + Array.length p.distribution)
               0 pairs) );
        ("distinct_rows", Obs.Json.Int distinct_rows);
        ("distributions", Obs.Json.Int (Array.length pairs));
        ("distinct_distributions", Obs.Json.Int distinct_distributions);
      ];
    pairs
  in
  (share, finish)

(* The whole pricing fan-out, shared by [generate] and
   [with_objective]. *)
let price_pairs ~pool ~objective ~space ~good_fraction ~specs ~uarchs
    ~settings ~o3_runs ~runs () =
  let sizes =
    match (objective : Objective.Spec.t) with
    | Cycles -> [||]
    | _ -> static_sizes ~specs ~o3_runs runs
  in
  Obs.Span.with_ "dataset.price"
    ~attrs:
      [
        ("pairs", Obs.Json.Int (Array.length specs * Array.length uarchs));
        ("objective", Obs.Json.Str (Objective.Spec.to_string objective));
      ]
    (fun () ->
      let parent = Obs.Span.current_id () in
      let share, finish = sharing () in
      finish
        (Pool.init pool
           (Array.length specs * Array.length uarchs)
           (price_pair ~objective ~space ~good_fraction ~sizes ~uarchs
              ~settings ~o3_runs ~runs ~share ~parent)))

type backend =
  | In_process
  | Offload of
      ((Workloads.Spec.t * Passes.Flags.setting array) array ->
       Sim.Xtrem.run array array)

(* The one profiling path.  [grid.(pi)] lists the settings wanted for
   program [specs.(pi)]; the result holds each program's digest and
   its runs in request order.  In process, one pool task per program
   resolves its settings in order through [cache], so no two domains
   ever resolve one key; [Offload f] gets the whole grid in one call
   and its runs preload [cache].  Every run of a program must compute
   the checksum of its first: anything else is a miscompilation. *)
let profile ~pool ~backend ~cache ~progress specs grid =
  let n = Array.length specs in
  Obs.Span.with_ "dataset.profile"
    ~attrs:
      [
        ("programs", Obs.Json.Int n);
        ( "backend",
          Obs.Json.Str
            (match backend with
            | In_process -> "in-process"
            | Offload _ -> "offload") );
      ]
    (fun () ->
      let parent = Obs.Span.current_id () in
      let tick = Obs.Span.ticker ~print:progress ~total:n "profiled" in
      let finish pi t0 program_digest runs =
        let spec = specs.(pi) and wanted = grid.(pi) in
        if Array.length runs <> Array.length wanted then
          failwith
            (Printf.sprintf "Dataset.profile: %d runs for %s, wanted %d"
               (Array.length runs) spec.Workloads.Spec.name
               (Array.length wanted));
        Array.iteri
          (fun i r ->
            if r.Sim.Xtrem.checksum <> runs.(0).Sim.Xtrem.checksum then
              failwith
                (Printf.sprintf "Dataset.profile: %s miscompiled under %s"
                   spec.Workloads.Spec.name
                   (Passes.Flags.to_string wanted.(i))))
          runs;
        Obs.Span.event ~parent "dataset.program"
          [
            ("program", Obs.Json.Str spec.Workloads.Spec.name);
            ("dur_s", Obs.Json.Float (Obs.Clock.now_s () -. t0));
            ("runs", Obs.Json.Int (Array.length runs));
          ];
        tick spec.Workloads.Spec.name;
        (program_digest, runs)
      in
      match backend with
      | In_process ->
        Pool.init pool n (fun pi ->
            let t0 = Obs.Clock.now_s () in
            let program = Workloads.Mibench.program_of specs.(pi) in
            let program_digest = Store.program_digest program in
            finish pi t0 program_digest
              (Array.map
                 (fun setting ->
                   Store.Profile_cache.find_or_compute cache ~program_digest
                     ~setting (fun () -> Sim.Xtrem.profile_of ~setting program))
                 grid.(pi)))
      | Offload evaluate ->
        let evaluated = evaluate (Array.combine specs grid) in
        if Array.length evaluated <> n then
          failwith "Dataset.profile: offload backend dropped programs";
        Array.mapi
          (fun pi runs ->
            let t0 = Obs.Clock.now_s () in
            let program_digest =
              Store.program_digest (Workloads.Mibench.program_of specs.(pi))
            in
            Array.iter
              (fun r ->
                Store.Profile_cache.preload cache ~program_digest
                  ~setting:r.Sim.Xtrem.setting r)
              runs;
            finish pi t0 program_digest runs)
          evaluated)

let generate ?store ?pool ?(backend = In_process)
    ?(objective = Objective.Spec.default)
    ?(progress = fun (_ : string) -> ()) scale =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let progress = Pool.serialised progress in
  let specs = Workloads.Mibench.all in
  let cache = Store.Profile_cache.create ?disk:store () in
  Obs.Span.with_ "dataset.generate"
    ~attrs:
      [
        ("programs", Obs.Json.Int (Array.length specs));
        ("uarchs", Obs.Json.Int scale.n_uarchs);
        ("opts", Obs.Json.Int scale.n_opts);
        ("seed", Obs.Json.Int scale.seed);
        ("space", Obs.Json.Str (Features.space_to_string scale.space));
        ("objective", Obs.Json.Str (Objective.Spec.to_string objective));
        ("jobs", Obs.Json.Int (Pool.size pool));
        ( "store",
          match store with
          | None -> Obs.Json.Null
          | Some s -> Obs.Json.Str (Store.dir s) );
      ]
    (fun () ->
      let uarchs =
        Uarch.Space.sample
          (match scale.space with
          | Features.Base -> Uarch.Space.Base
          | Features.Extended -> Uarch.Space.Extended)
          ~seed:scale.seed scale.n_uarchs
      in
      let rng = Rng.create (scale.seed * 7919) in
      let settings =
        Array.init scale.n_opts (fun _ -> Passes.Flags.random rng)
      in
      (* Every program's group is the -O3 baseline, then the sample: a
         warm disk store satisfies all of them without a single
         interpretation. *)
      let wanted = Array.append [| Passes.Flags.o3 |] settings in
      let profiles =
        profile ~pool ~backend ~cache ~progress specs
          (Array.map (fun _ -> wanted) specs)
      in
      let prog_digests = Array.map fst profiles in
      let o3_runs = Array.map (fun (_, rs) -> rs.(0)) profiles in
      let runs =
        Array.map (fun (_, rs) -> Array.sub rs 1 scale.n_opts) profiles
      in
      (* Pricing/good-set fan-out: one task per (program, uarch) pair, all
         reading the shared immutable profiles. *)
      let pairs =
        price_pairs ~pool ~objective ~space:scale.space
          ~good_fraction:scale.good_fraction ~specs ~uarchs ~settings
          ~o3_runs ~runs ()
      in
      {
        scale;
        objective;
        specs;
        uarchs;
        settings;
        o3_runs;
        runs;
        pairs;
        prog_digests;
        cache;
      })

(** Profile of [prog] compiled under an arbitrary setting, resolved
    through the two-tier cache by canonical (semantic) form.  Safe to
    call from several domains; profiling is deterministic, so a lost
    insertion race returns the same value either way, and the expensive
    profiling runs outside the cache lock. *)
let run_for t ~prog (setting : Passes.Flags.setting) =
  Store.Profile_cache.find_or_compute t.cache
    ~program_digest:t.prog_digests.(prog) ~setting (fun () ->
      let program = Workloads.Mibench.program_of t.specs.(prog) in
      Sim.Xtrem.profile_of ~setting program)

(** Combined digests of the generation inputs, for artifact
    provenance. *)
let provenance_digests t =
  let fold add items =
    let d = Prelude.Fnv.create () in
    Array.iter
      (fun x ->
        add d x;
        Prelude.Fnv.add_char d '|')
      items;
    Prelude.Fnv.to_hex d
  in
  ( fold Prelude.Fnv.add_string t.prog_digests,
    fold
      (fun d s -> Prelude.Fnv.add_string d (Passes.Flags.cache_key s))
      t.settings,
    fold
      (fun d u -> Prelude.Fnv.add_string d (Uarch.Config.cache_key u))
      t.uarchs )

(** Seconds of [prog] under [setting] on microarchitecture [uarch]. *)
let evaluate t ~prog ~uarch setting =
  let r = run_for t ~prog setting in
  (Sim.Xtrem.time r t.uarchs.(uarch)).Sim.Pipeline.seconds

(** Objective vector ([cycles; size; energy]) of [prog] under [setting]
    on [uarch], through the same cache as {!evaluate}. *)
let evaluate_vector t ~prog ~uarch setting =
  let r = run_for t ~prog setting in
  let program = lazy (Workloads.Mibench.program_of t.specs.(prog)) in
  Objective.Spec.vector r ~size:(run_size ~program r) t.uarchs.(uarch)

(** Re-derive every pair (good sets, distributions, fronts) under a
    different objective from the already-interpreted runs — no
    recompiles, no interpretations; just a re-pricing fan-out.  The
    shared sample, features and times are unchanged, so a
    [with_objective d Objective.Spec.default] round-trip is
    bit-identical to [d]. *)
let with_objective ?pool t objective =
  if Objective.Spec.equal t.objective objective then t
  else
    let pool = match pool with Some p -> p | None -> Pool.default () in
    let pairs =
      price_pairs ~pool ~objective ~space:t.scale.space
        ~good_fraction:t.scale.good_fraction ~specs:t.specs ~uarchs:t.uarchs
        ~settings:t.settings ~o3_runs:t.o3_runs ~runs:t.runs ()
    in
    { t with objective; pairs }

(** Refit every pair's good set from its times at [good_fraction] and
    fit its distribution to it, shared as pricing shares them.  Nothing
    is priced again. *)
let with_good_fraction t good_fraction =
  let share, finish = sharing () in
  let pairs =
    Array.map
      (fun p ->
        let good = good_set ~good_fraction p.times in
        let settings = Array.map (fun i -> t.settings.(i)) good in
        { p with good; distribution = share (Distribution.fit settings) })
      t.pairs
  in
  { t with scale = { t.scale with good_fraction }; pairs = finish pairs }
