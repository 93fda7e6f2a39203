(* Tests for the machine-learning model: distribution fitting (eq. 5),
   mixtures (eq. 6), mode (eq. 1), KNN prediction, the Markov variant,
   features and a tiny end-to-end cross-validation. *)

module F = Passes.Flags

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let setting_with pairs =
  let s = Array.copy F.o3 in
  List.iter (fun (name, v) -> s.(F.index_of_name name) <- v) pairs;
  s

(* ---- Distribution (IID multinomial) ----------------------------------- *)

let test_fit_is_frequency_counting () =
  (* eq. 5: theta is the frequency of each value among the good set. *)
  let l = F.index_of_name "funroll_loops" in
  let good =
    [|
      setting_with [ ("funroll_loops", 1) ];
      setting_with [ ("funroll_loops", 1) ];
      setting_with [ ("funroll_loops", 1) ];
      setting_with [ ("funroll_loops", 0) ];
    |]
  in
  let g = Ml_model.Distribution.fit good in
  checkf "p(on) = 3/4" 0.75 g.(l).(1);
  checkf "p(off) = 1/4" 0.25 g.(l).(0)

let test_fit_rows_normalised () =
  let rng = Prelude.Rng.create 3 in
  let good = Array.init 10 (fun _ -> F.random rng) in
  let g = Ml_model.Distribution.fit good in
  Array.iter
    (fun row ->
      let z = Array.fold_left ( +. ) 0.0 row in
      if Float.abs (z -. 1.0) > 1e-9 then Alcotest.failf "row sums to %f" z)
    g

let test_mode_picks_argmax () =
  let good =
    [|
      setting_with [ ("funroll_loops", 1); ("fgcse", 0) ];
      setting_with [ ("funroll_loops", 1); ("fgcse", 0) ];
      setting_with [ ("funroll_loops", 0); ("fgcse", 0) ];
    |]
  in
  let m = Ml_model.Distribution.mode (Ml_model.Distribution.fit good) in
  check Alcotest.int "unroll on" 1 m.(F.index_of_name "funroll_loops");
  check Alcotest.int "gcse off" 0 m.(F.index_of_name "fgcse")

let test_mix_weights () =
  let a = Ml_model.Distribution.fit [| setting_with [ ("fgcse", 1) ] |] in
  let b = Ml_model.Distribution.fit [| setting_with [ ("fgcse", 0) ] |] in
  let l = F.index_of_name "fgcse" in
  let m = Ml_model.Distribution.mix [ (3.0, a); (1.0, b) ] in
  checkf "weighted 3:1" 0.75 m.(l).(1);
  (* Mixing preserves normalisation. *)
  Array.iter
    (fun row ->
      let z = Array.fold_left ( +. ) 0.0 row in
      if Float.abs (z -. 1.0) > 1e-9 then Alcotest.failf "row sums to %f" z)
    m

let test_mix_rejects_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Distribution.mix: empty mixture") (fun () ->
      ignore (Ml_model.Distribution.mix []))

let test_log_likelihood_orders_settings () =
  let good = Array.make 5 (setting_with [ ("funroll_loops", 1) ]) in
  let g = Ml_model.Distribution.fit ~alpha:0.1 good in
  let yes = Ml_model.Distribution.log_likelihood g (setting_with [ ("funroll_loops", 1) ]) in
  let no = Ml_model.Distribution.log_likelihood g (setting_with [ ("funroll_loops", 0) ]) in
  check Alcotest.bool "good setting more likely" true (yes > no)

let test_sample_respects_support () =
  let good = Array.make 4 (setting_with []) in
  let g = Ml_model.Distribution.fit good in
  let rng = Prelude.Rng.create 5 in
  for _ = 1 to 20 do
    let s = Ml_model.Distribution.sample rng g in
    (* Zero-probability values can never be drawn. *)
    check Alcotest.bool "drawn from support" true (s = F.o3)
  done

(* ---- Chain model ------------------------------------------------------ *)

let test_chain_mode_matches_training_consensus () =
  let good = Array.make 6 (setting_with [ ("funroll_loops", 1) ]) in
  let m = Ml_model.Chain_model.fit good in
  let mode = Ml_model.Chain_model.mode m in
  check Alcotest.int "viterbi recovers the consensus" 1
    mode.(F.index_of_name "funroll_loops")

let test_chain_mix () =
  let a = Ml_model.Chain_model.fit [| setting_with [ ("fgcse", 1) ] |] in
  let b = Ml_model.Chain_model.fit [| setting_with [ ("fgcse", 0) ] |] in
  let m = Ml_model.Chain_model.mix [ (1.0, a); (1.0, b) ] in
  let mode = Ml_model.Chain_model.mode m in
  F.validate mode

(* ---- Features ---------------------------------------------------------- *)

let test_feature_dimensions () =
  check Alcotest.int "base" 19 (Ml_model.Features.dim Ml_model.Features.Base);
  check Alcotest.int "extended" 21
    (Ml_model.Features.dim Ml_model.Features.Extended);
  check Alcotest.int "names match" 19
    (Array.length (Ml_model.Features.names Ml_model.Features.Base))

let test_normaliser_roundtrip () =
  let rows = [| [| 1.0; 5.0 |]; [| 3.0; 9.0 |] |] in
  let n = Ml_model.Features.fit_normaliser rows in
  let z = Ml_model.Features.normalise n [| 2.0; 7.0 |] in
  checkf "centred x" 0.0 z.(0);
  checkf "centred y" 0.0 z.(1)

let test_shared_prefix () =
  let module Fe = Ml_model.Features in
  let base = Fe.dim Fe.Base and ext = Fe.dim Fe.Extended in
  check Alcotest.int "base" 8 (Fe.shared_prefix base);
  check Alcotest.int "extended" 10 (Fe.shared_prefix ext);
  check Alcotest.int "no space" 0 (Fe.shared_prefix 5);
  let drop cols width = Array.init width (fun i -> not (List.mem i cols)) in
  check Alcotest.int "mask drops two descriptors" 6
    (Fe.shared_prefix ~mask:(drop [ 0; 7 ] base) (base - 2));
  check Alcotest.int "mask drops counters only" 10
    (Fe.shared_prefix ~mask:(drop [ 12; 20 ] ext) (ext - 2));
  check Alcotest.int "mask of no space" 0
    (Fe.shared_prefix ~mask:(drop [] 7) 7)

(* ---- End-to-end on a tiny dataset -------------------------------------- *)

let tiny_dataset =
  lazy
    (Ml_model.Dataset.generate
       {
         Ml_model.Dataset.n_uarchs = 3;
         n_opts = 12;
         seed = 17;
         space = Ml_model.Features.Base;
         good_fraction = 0.1;
       })

let test_dataset_shape () =
  let d = Lazy.force tiny_dataset in
  check Alcotest.int "pairs" (35 * 3) (Array.length d.Ml_model.Dataset.pairs);
  Array.iter
    (fun (p : Ml_model.Dataset.pair) ->
      check Alcotest.int "times per pair" 12
        (Array.length p.Ml_model.Dataset.times);
      check Alcotest.bool "best is fastest" true
        (Array.for_all
           (fun t -> t >= p.Ml_model.Dataset.best_seconds)
           p.Ml_model.Dataset.times);
      check Alcotest.bool "o3 positive" true (p.Ml_model.Dataset.o3_seconds > 0.0))
    d.Ml_model.Dataset.pairs

let test_good_set_selection () =
  let times = [| 5.0; 1.0; 3.0; 2.0; 4.0; 6.0; 7.0; 8.0; 9.0; 10.0 |] in
  let good = Ml_model.Dataset.good_set ~good_fraction:0.2 times in
  check Alcotest.(array int) "two best indices" [| 1; 3 |] good;
  (* At least one setting survives even with a tiny fraction. *)
  check Alcotest.int "never empty" 1
    (Array.length (Ml_model.Dataset.good_set ~good_fraction:0.001 times))

let test_model_prediction_valid () =
  let d = Lazy.force tiny_dataset in
  let model = Ml_model.Model.train d in
  Array.iter
    (fun (p : Ml_model.Dataset.pair) ->
      F.validate (Ml_model.Model.predict model p.Ml_model.Dataset.features_raw))
    d.Ml_model.Dataset.pairs

let test_model_k1_returns_neighbour_mode () =
  let d = Lazy.force tiny_dataset in
  let model = Ml_model.Model.train ~k:1 d in
  (* Predicting at a training point with K=1 returns that point's own
     distribution mode. *)
  let p = d.Ml_model.Dataset.pairs.(0) in
  let predicted = Ml_model.Model.predict model p.Ml_model.Dataset.features_raw in
  check
    Alcotest.(array int)
    "self nearest neighbour"
    (Ml_model.Distribution.mode p.Ml_model.Dataset.distribution)
    predicted

let test_crossval_excludes_test_pair () =
  let d = Lazy.force tiny_dataset in
  let outcomes = Ml_model.Crossval.run d in
  check Alcotest.int "one outcome per pair" (35 * 3) (Array.length outcomes);
  Array.iter
    (fun (o : Ml_model.Crossval.outcome) ->
      check Alcotest.bool "positive seconds" true (o.predicted_seconds > 0.0);
      F.validate o.predicted)
    outcomes

let test_fraction_of_best_bounds () =
  let d = Lazy.force tiny_dataset in
  let outcomes = Ml_model.Crossval.run d in
  let f = Ml_model.Crossval.fraction_of_best outcomes in
  check Alcotest.bool "fraction sane" true (f > -1.0 && f <= 1.5)

let test_mutual_info_nonnegative () =
  let d = Lazy.force tiny_dataset in
  let mi = Ml_model.Mutual_info.pass_impact d ~prog:0 in
  Array.iter
    (fun v ->
      if v < 0.0 || v > 1.0 then Alcotest.failf "normalised MI out of range: %f" v)
    mi;
  let rel = Ml_model.Mutual_info.feature_pass_relation d in
  check Alcotest.int "one row per dimension" F.n_dims (Array.length rel);
  Array.iter
    (Array.iter (fun v ->
         if v < 0.0 || v > 1.0 then Alcotest.failf "MI out of range: %f" v))
    rel

let test_evaluate_caches_settings () =
  let d = Lazy.force tiny_dataset in
  let t1 = Ml_model.Dataset.evaluate d ~prog:0 ~uarch:0 F.o3 in
  let t2 = Ml_model.Dataset.evaluate d ~prog:0 ~uarch:0 F.o3 in
  checkf "cached evaluation deterministic" t1 t2

(* ---- Parallel engine: trace-once/model-many over a domain pool -------- *)

let with_pool jobs f =
  let pool = Prelude.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Prelude.Pool.shutdown pool) (fun () -> f pool)

let tiny_scale =
  {
    Ml_model.Dataset.n_uarchs = 3;
    n_opts = 10;
    seed = 23;
    space = Ml_model.Features.Base;
    good_fraction = 0.1;
  }

let check_pairs_identical (a : Ml_model.Dataset.pair) (b : Ml_model.Dataset.pair) =
  check Alcotest.int "prog" a.prog_index b.prog_index;
  check Alcotest.int "uarch" a.uarch_index b.uarch_index;
  check Alcotest.bool "features bit-identical" true
    (a.features_raw = b.features_raw);
  check Alcotest.bool "o3 seconds bit-identical" true
    (a.o3_seconds = b.o3_seconds);
  check Alcotest.bool "times bit-identical" true (a.times = b.times);
  check Alcotest.int "best" a.best b.best;
  check Alcotest.bool "good set identical" true (a.good = b.good);
  check Alcotest.bool "distribution bit-identical" true
    (a.distribution = b.distribution)

let test_dataset_identical_across_jobs () =
  with_pool 1 (fun p1 ->
      with_pool 4 (fun p4 ->
          let d1 = Ml_model.Dataset.generate ~pool:p1 tiny_scale in
          let d4 = Ml_model.Dataset.generate ~pool:p4 tiny_scale in
          check Alcotest.bool "settings identical" true
            (d1.Ml_model.Dataset.settings = d4.Ml_model.Dataset.settings);
          check Alcotest.int "pair count"
            (Array.length d1.Ml_model.Dataset.pairs)
            (Array.length d4.Ml_model.Dataset.pairs);
          Array.iteri
            (fun i a -> check_pairs_identical a d4.Ml_model.Dataset.pairs.(i))
            d1.Ml_model.Dataset.pairs))

let test_crossval_identical_across_jobs () =
  let d = Lazy.force tiny_dataset in
  let o1 = with_pool 1 (fun p -> Ml_model.Crossval.run ~pool:p d) in
  let o4 = with_pool 4 (fun p -> Ml_model.Crossval.run ~pool:p d) in
  check Alcotest.int "outcome count" (Array.length o1) (Array.length o4);
  Array.iteri
    (fun i (a : Ml_model.Crossval.outcome) ->
      let b = o4.(i) in
      check Alcotest.int "prog" a.prog b.prog;
      check Alcotest.int "uarch" a.uarch b.uarch;
      check Alcotest.bool "predicted setting identical" true
        (a.predicted = b.predicted);
      check Alcotest.bool "seconds bit-identical" true
        (a.predicted_seconds = b.predicted_seconds))
    o1

let test_run_for_concurrent_stress () =
  (* Hammer the mutex-guarded profile cache from four domains with
     overlapping (prog, setting) keys and compare against a sequential
     reference evaluated on a fresh dataset. *)
  let d = Ml_model.Dataset.generate tiny_scale in
  let rng = Prelude.Rng.create 99 in
  let extra = Array.init 6 (fun _ -> F.random rng) in
  let task i =
    let setting = extra.(i mod Array.length extra) in
    let prog = i mod Ml_model.Dataset.n_programs d in
    Ml_model.Dataset.evaluate d ~prog ~uarch:(i mod 3) setting
  in
  let parallel = with_pool 4 (fun p -> Prelude.Pool.init p 120 task) in
  let reference =
    let fresh = Ml_model.Dataset.generate tiny_scale in
    Array.init 120 (fun i ->
        let setting = extra.(i mod Array.length extra) in
        let prog = i mod Ml_model.Dataset.n_programs fresh in
        Ml_model.Dataset.evaluate fresh ~prog ~uarch:(i mod 3) setting)
  in
  check Alcotest.bool "concurrent cache bit-identical to sequential" true
    (parallel = reference)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Every file under [dir] as (relative path, contents), path-sorted. *)
let rec files ?(rel = "") dir =
  Sys.readdir (Filename.concat dir rel)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let rel = Filename.concat rel name in
         let path = Filename.concat dir rel in
         if Sys.is_directory path then files ~rel dir
         else [ (rel, In_channel.with_open_bin path In_channel.input_all) ])

let test_crossval_profiles_once () =
  (* A cold store-backed crossval interprets each key once at any pool
     size: every interpretation writes one record, and the store holds
     the same files byte for byte at one and four domains.  A good set
     of half the sample blends several settings into each prediction,
     so most folds predict a setting outside the sample and crossval
     has profiling of its own to do. *)
  let interp = Obs.Metrics.counter "interp.runs"
  and writes = Obs.Metrics.counter "store.writes" in
  let stored jobs =
    let dir = Filename.temp_dir "test_ml_crossval" (string_of_int jobs) in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        with_pool jobs (fun pool ->
            let d =
              Ml_model.Dataset.generate ~store:(Store.open_ ~dir) ~pool
                { tiny_scale with good_fraction = 0.5 }
            in
            let runs0 = Obs.Metrics.value interp
            and writes0 = Obs.Metrics.value writes in
            ignore (Ml_model.Crossval.run ~pool d);
            let written = Obs.Metrics.value writes - writes0 in
            check Alcotest.bool "crossval profiled settings" true (written > 0);
            check Alcotest.int
              (Printf.sprintf "interpretations = store writes at %d domains"
                 jobs)
              written
              (Obs.Metrics.value interp - runs0));
        files dir)
  in
  let one = stored 1 in
  check Alcotest.bool "same store files at 1 and 4 domains" true
    (one = stored 4)

(* ---- Extensions: clustering and static features ----------------------- *)

let test_kmeans_separates_clusters () =
  let rng = Prelude.Rng.create 7 in
  let rows =
    Array.init 60 (fun i ->
        let base = if i < 30 then 0.0 else 100.0 in
        [| base +. Prelude.Rng.float rng 1.0; base +. Prelude.Rng.float rng 1.0 |])
  in
  let t = Ml_model.Clustering.kmeans ~rng ~k:2 rows in
  (* Both natural clusters must be pure. *)
  let first = t.Ml_model.Clustering.assignment.(0) in
  for i = 1 to 29 do
    check Alcotest.int "first cluster pure" first
      t.Ml_model.Clustering.assignment.(i)
  done;
  let second = t.Ml_model.Clustering.assignment.(30) in
  check Alcotest.bool "clusters differ" true (second <> first);
  for i = 31 to 59 do
    check Alcotest.int "second cluster pure" second
      t.Ml_model.Clustering.assignment.(i)
  done

let test_kmeans_medoids_are_members () =
  let rng = Prelude.Rng.create 8 in
  let rows = Array.init 40 (fun i -> [| float_of_int i; 0.0 |]) in
  let t = Ml_model.Clustering.kmeans ~rng ~k:4 rows in
  let m = Ml_model.Clustering.medoids t rows in
  check Alcotest.bool "some medoids" true (Array.length m > 0);
  Array.iter (fun i -> check Alcotest.bool "in range" true (i >= 0 && i < 40)) m

let test_clustering_selects_pairs () =
  let d = Lazy.force tiny_dataset in
  let rng = Prelude.Rng.create 9 in
  let subset = Ml_model.Clustering.select_training_pairs ~rng ~k:10 d in
  check Alcotest.bool "nonempty" true (Array.length subset > 0);
  check Alcotest.bool "not everything" true
    (Array.length subset <= 10);
  Array.iter
    (fun i ->
      check Alcotest.bool "valid index" true
        (i >= 0 && i < Array.length d.Ml_model.Dataset.pairs))
    subset

let test_static_features_shape () =
  let program =
    Passes.Driver.compile ~setting:F.o3
      (Workloads.Mibench.program_of (Workloads.Mibench.by_name "crc"))
  in
  let f = Ml_model.Static_features.of_program program in
  check Alcotest.int "dimension" Ml_model.Static_features.dim (Array.length f);
  check Alcotest.int "names match" Ml_model.Static_features.dim
    (Array.length Ml_model.Static_features.names);
  (* Fractions are fractions. *)
  for i = 1 to 6 do
    check Alcotest.bool "fraction in range" true (f.(i) >= 0.0 && f.(i) <= 1.0)
  done

let test_static_features_distinguish_programs () =
  let feat name =
    Ml_model.Static_features.of_program
      (Passes.Driver.compile ~setting:F.o3
         (Workloads.Mibench.program_of (Workloads.Mibench.by_name name)))
  in
  let a = feat "rijndael_e" and b = feat "qsort" in
  check Alcotest.bool "different programs, different features" true
    (Prelude.Vec.l2_distance a b > 0.5)

(* ---- Prediction core: comparator regression, kNN search vs full sort -- *)

module P = Ml_model.Predict
module V = Ml_model.Vptree
module Knn = Ml_model.Knn

(* The pre-fix neighbour selection, verbatim: polymorphic [compare] on
   (distance, index) tuples.  On finite data the explicit
   Float.compare-then-index comparator must reproduce it bit-for-bit —
   the regression the golden datasets below pin down. *)
let reference_predict ~k ~beta (points : float array array) distributions xn =
  let n = Array.length points in
  let dist =
    Array.init n (fun i -> (Ml_model.Features.distance points.(i) xn, i))
  in
  Array.sort compare dist;
  let k = min k n in
  let sel = Array.sub dist 0 k in
  let dmin = fst sel.(0) in
  let ns =
    Array.map
      (fun (d, i) ->
        { P.index = i; distance = d; weight = exp (-.beta *. (d -. dmin)) })
      sel
  in
  let distribution =
    Ml_model.Distribution.mix
      (Array.to_list
         (Array.map (fun nb -> (nb.P.weight, distributions.(nb.P.index))) ns))
  in
  (ns, distribution, Ml_model.Distribution.mode distribution)

let golden_scale seed =
  {
    Ml_model.Dataset.n_uarchs = 2;
    n_opts = 8;
    seed;
    space = Ml_model.Features.Base;
    good_fraction = 0.1;
  }

let golden42 = lazy (Ml_model.Dataset.generate (golden_scale 42))
let golden43 = lazy (Ml_model.Dataset.generate (golden_scale 43))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Bit for bit, so a NaN weight (every distance +inf) compares equal to
   itself. *)
let check_same_result ~msg (got : P.result) ns distribution setting =
  let fields f ns = Array.map f ns in
  if
    fields (fun nb -> nb.P.index) got.P.neighbours <> fields (fun nb -> nb.P.index) ns
    || not (same_bits (fields (fun nb -> nb.P.distance) got.P.neighbours)
              (fields (fun nb -> nb.P.distance) ns))
    || not (same_bits (fields (fun nb -> nb.P.weight) got.P.neighbours)
              (fields (fun nb -> nb.P.weight) ns))
  then Alcotest.failf "%s: neighbours differ" msg;
  if
    Array.length got.P.distribution <> Array.length distribution
    || not (Array.for_all2 same_bits got.P.distribution distribution)
  then Alcotest.failf "%s: distribution differs" msg;
  if got.P.setting <> setting then Alcotest.failf "%s: setting differs" msg

let test_comparator_matches_historical_sort () =
  List.iter
    (fun (seed, dataset) ->
      let d = Lazy.force dataset in
      let model = Ml_model.Model.train d in
      let r = Ml_model.Model.export model in
      let points = r.Ml_model.Model.r_features in
      let distributions = r.Ml_model.Model.r_distributions in
      let k = Ml_model.Model.k model and beta = Ml_model.Model.beta model in
      Array.iter
        (fun (p : Ml_model.Dataset.pair) ->
          let xn =
            Ml_model.Features.normalise r.Ml_model.Model.r_normaliser
              p.Ml_model.Dataset.features_raw
          in
          let ns, g, mode =
            reference_predict ~k ~beta points distributions xn
          in
          check_same_result
            ~msg:(Printf.sprintf "seed %d, full sort" seed)
            (P.run ~k ~beta ~points ~distributions xn)
            ns g mode;
          (* The golden answers hold straight through the kNN search and
             the model entry point. *)
          check_same_result
            ~msg:(Printf.sprintf "seed %d, model" seed)
            (Ml_model.Model.predict_full model p.Ml_model.Dataset.features_raw)
            ns g mode)
        d.Ml_model.Dataset.pairs)
    [ (42, golden42); (43, golden43) ]

(* Synthetic normalised-space rows with exact duplicates sprinkled in,
   so distance ties — where only the index tie-break separates
   candidates — actually occur. *)
let rows_with_duplicates rng ~n ~dim =
  let rows =
    Array.init n (fun _ ->
        Array.init dim (fun _ -> Prelude.Rng.float rng 2.0 -. 1.0))
  in
  for i = 0 to n - 1 do
    if i mod 17 = 16 then rows.(i) <- Array.copy rows.(i - 1)
  done;
  rows

(* Deployment-shaped rows: [u] configurations x [p] programs, laid out
   program-major as a dataset's pairs are, the rows of one configuration
   sharing their first [shared] columns (the descriptors, which
   {!Ml_model.Features.raw} puts first); every eleventh row repeats the
   row before it exactly.  Returns the rows and each configuration's
   shared prefix. *)
let blocked_rows rng ~u ~p ~shared ~dim =
  let uniform () = Prelude.Rng.float rng 2.0 -. 1.0 in
  let descriptors =
    Array.init u (fun _ -> Array.init shared (fun _ -> uniform ()))
  in
  let rows =
    Array.init (u * p) (fun i ->
        let row = Array.init dim (fun _ -> uniform ()) in
        Array.blit descriptors.(i mod u) 0 row 0 shared;
        row)
  in
  for i = 0 to (u * p) - 1 do
    if i mod 11 = 10 then rows.(i) <- Array.copy rows.(i - 1)
  done;
  (rows, descriptors)

(* Random per-row distributions with the real (dimension, cardinality)
   shape, so mixtures do real work. *)
let random_distribution rng =
  Array.map
    (fun row ->
      let r = Array.map (fun _ -> 0.1 +. Prelude.Rng.float rng 1.0) row in
      let s = Array.fold_left ( +. ) 0.0 r in
      Array.map (fun v -> v /. s) r)
    (Ml_model.Distribution.uniform ())

(* Every shape, index prefix, query kind and k: the search returns the
   full sort's neighbours (indices and distance bits), and a prediction
   through it is the full sort's prediction. *)
let test_knn_equals_full_sort_property () =
  let rng = Prelude.Rng.create 123 in
  let dim = Ml_model.Features.dim Ml_model.Features.Base in
  let shared = Ml_model.Features.descriptor_dim Ml_model.Features.Base in
  let kth_zero = ref 0 and kth_inf = ref 0 in
  List.iter
    (fun (u, p) ->
      let rows, descriptors = blocked_rows rng ~u ~p ~shared ~dim in
      let n = u * p in
      let distributions = Array.init n (fun _ -> random_distribution rng) in
      let uniform () = Prelude.Rng.float rng 2.0 -. 1.0 in
      let queries =
        List.concat
          [
            (* On a training row, on a duplicated one, and on a group's
               prefix with a fresh tail. *)
            List.map (fun i -> ("row", Array.copy rows.(i mod n))) [ 0; 10; 7 * p ];
            List.map
              (fun b ->
                let q = Array.init dim (fun _ -> uniform ()) in
                Array.blit descriptors.(b mod u) 0 q 0 shared;
                ("prefix", q))
              [ 0; u - 1 ];
            [
              ("near", Array.init dim (fun _ -> uniform ()));
              ("far", Array.init dim (fun _ -> 1e3 +. uniform ()));
              (* Every squared difference overflows: all distances +inf. *)
              ("overflow", Array.make dim 1e200);
            ];
          ]
      in
      List.iter
        (fun prefix ->
          let index = Knn.build ~prefix rows in
          if prefix = 0 then check Alcotest.int "prefix 0: one group" 1 (Knn.groups index);
          if prefix = shared then
            check Alcotest.bool "descriptor prefix: one group per configuration"
              true (Knn.groups index <= u);
          List.iter
            (fun (kind, q) ->
              for k = 1 to n + 3 do
                let want = P.neighbours ~k ~beta:1.0 rows q in
                let idxs, dists = Knn.search index ~k q in
                let msg =
                  Printf.sprintf "u=%d p=%d prefix=%d %s query, k=%d" u p prefix
                    kind k
                in
                if
                  idxs <> Array.map (fun nb -> nb.P.index) want
                  || not (same_bits dists (Array.map (fun nb -> nb.P.distance) want))
                then Alcotest.failf "%s: search diverges from the full sort" msg;
                let kth = dists.(Array.length dists - 1) in
                if kth = 0.0 then incr kth_zero;
                if kth = Float.infinity then incr kth_inf;
                if k = 1 || k = 7 || k = n then begin
                  let r = P.run ~k ~beta:1.0 ~points:rows ~distributions q in
                  check_same_result ~msg
                    (P.run_indexed ~k ~beta:1.0 ~index ~distributions q)
                    r.P.neighbours r.P.distribution r.P.setting
                end
              done)
            queries)
        [ 0; shared; dim ])
    (* One group; groups smaller than k; many groups of several rows. *)
    [ (1, 12); (6, 3); (9, 8) ];
  check Alcotest.bool "some k-th distance is 0" true (!kth_zero > 0);
  check Alcotest.bool "some k-th distance is +inf" true (!kth_inf > 0);
  (* A tie at the k-th distance across groups, where only the lower
     index decides: row 1's group is nearer on the prefix (1 against 3)
     and is finished first, but both rows end at exactly 3.0 under the
     root, and row 0, with its whole distance in the prefix, must still
     win.  sqrt 3.0 squared rounds below 3.0, so without the padding the
     skip rule would drop row 0. *)
  let row0 = Array.make dim 0.0 and row1 = Array.make dim 0.0 in
  Array.fill row0 0 3 1.0;
  row1.(0) <- 1.0;
  row1.(shared) <- 1.0;
  row1.(shared + 1) <- 1.0;
  let rows = [| row0; row1 |] and q = Array.make dim 0.0 in
  let index = Knn.build ~prefix:shared rows in
  List.iter
    (fun k ->
      let want = P.neighbours ~k ~beta:1.0 rows q in
      let idxs, dists = Knn.search index ~k q in
      check Alcotest.(array int) (Printf.sprintf "tie, k=%d" k)
        (Array.map (fun nb -> nb.P.index) want)
        idxs;
      check Alcotest.bool (Printf.sprintf "tie, k=%d: distances" k) true
        (same_bits dists (Array.map (fun nb -> nb.P.distance) want)))
    [ 1; 2 ];
  check Alcotest.int "the lower index wins the tie" 0
    (fst (Knn.search index ~k:1 q)).(0)

let test_predict_engines_bit_identical () =
  let rng = Prelude.Rng.create 321 in
  let dim = Ml_model.Features.dim Ml_model.Features.Base in
  let n = 120 in
  let rows = rows_with_duplicates rng ~n ~dim in
  let distributions = Array.init n (fun _ -> random_distribution rng) in
  let index =
    Knn.build
      ~prefix:(Ml_model.Features.descriptor_dim Ml_model.Features.Base)
      rows
  in
  let queries =
    Array.init 25 (fun qi ->
        if qi mod 5 = 0 then Array.copy rows.(qi * 7 mod n)
        else Array.init dim (fun _ -> Prelude.Rng.float rng 2.0 -. 1.0))
  in
  List.iter
    (fun k ->
      List.iter
        (fun beta ->
          Array.iteri
            (fun qi q ->
              let want = P.run ~k ~beta ~points:rows ~distributions q in
              check_same_result
                ~msg:(Printf.sprintf "k=%d beta=%g query %d" k beta qi)
                (P.run_indexed ~k ~beta ~index ~distributions q)
                want.P.neighbours want.P.distribution want.P.setting)
            queries)
        [ 0.25; 1.0; 4.0 ])
    [ 1; 3; 7 ]

(* A server at --jobs N calls [predict_full] on one model from several
   pool domains at once.  [Knn.search] then takes its index's shared
   prefix buffer or, while a concurrent search holds it, allocates its
   own.  Each domain walks the queries from its own offset, so the
   searches that overlap ask different things of the index; every
   answer must equal the sequential one bit for bit. *)
let test_concurrent_predict_full_matches_sequential () =
  let d = Lazy.force tiny_dataset in
  let model = Ml_model.Model.train d in
  let xs =
    Array.map
      (fun (p : Ml_model.Dataset.pair) -> p.Ml_model.Dataset.features_raw)
      d.Ml_model.Dataset.pairs
  in
  let n = Array.length xs in
  let sequential = Array.map (Ml_model.Model.predict_full model) xs in
  let rounds = 20 in
  let walk offset =
    Array.init (rounds * n) (fun j ->
        Ml_model.Model.predict_full model xs.((offset + j) mod n))
  in
  let domains = Array.init 4 (fun di -> Domain.spawn (fun () -> walk (di * 7))) in
  Array.iteri
    (fun di dom ->
      Array.iteri
        (fun j (got : P.result) ->
          let want = sequential.(((di * 7) + j) mod n) in
          check_same_result
            ~msg:(Printf.sprintf "domain %d, step %d" di j)
            got want.P.neighbours want.P.distribution want.P.setting)
        (Domain.join dom))
    domains

let test_vptree_build_deterministic_and_reloadable () =
  let rng = Prelude.Rng.create 77 in
  let rows = rows_with_duplicates rng ~n:100 ~dim:5 in
  let a = V.build rows and b = V.build rows in
  check Alcotest.bool "two builds, one structure" true (a = b);
  (* of_root accepts the frozen shape as it is. *)
  (match V.of_root ~n:100 a with
  | Error e -> Alcotest.failf "of_root rejected its own tree: %s" e
  | Ok c -> check Alcotest.bool "validated tree unchanged" true (c = a));
  (* Structural validation catches bad frozen trees. *)
  let reject ~msg root =
    match V.of_root ~n:100 root with
    | Ok _ -> Alcotest.failf "%s: accepted" msg
    | Error _ -> ()
  in
  reject ~msg:"missing rows" (V.Leaf [| 0 |]);
  reject ~msg:"duplicate row"
    (V.Leaf (Array.init 101 (fun i -> if i = 100 then 0 else i)));
  reject ~msg:"out of range" (V.Leaf (Array.init 100 (fun i -> i + 1)));
  reject ~msg:"non-finite radius"
    (V.Split
       {
         vp = 0;
         mu = Float.nan;
         inner = V.Leaf (Array.init 50 (fun i -> i + 1));
         outer = V.Leaf (Array.init 49 (fun i -> i + 51));
       })

let test_vptree_rejects_bad_input () =
  Alcotest.check_raises "empty matrix"
    (Invalid_argument "Vptree.build: empty matrix") (fun () ->
      ignore (V.build [||]));
  Alcotest.check_raises "ragged matrix"
    (Invalid_argument "Vptree.build: ragged matrix") (fun () ->
      ignore (V.build [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* A masked model groups on the descriptors its mask keeps and still
   predicts exactly what the full sort over its rows predicts. *)
let test_masked_model_matches_full_sort () =
  let rng = Prelude.Rng.create 909 in
  let dim = Ml_model.Features.dim Ml_model.Features.Base in
  let shared = Ml_model.Features.descriptor_dim Ml_model.Features.Base in
  let raw, descriptors = blocked_rows rng ~u:5 ~p:6 ~shared ~dim in
  let n = Array.length raw in
  let distributions = Array.init n (fun _ -> random_distribution rng) in
  let mask = Array.init dim (fun i -> i <> 1 && i <> 5 && i <> 12) in
  check Alcotest.int "prefix under the mask" (shared - 2)
    (Ml_model.Features.shared_prefix ~mask dim);
  let keep x =
    Array.of_list
      (List.filteri (fun i _ -> mask.(i)) (Array.to_list x))
  in
  List.iter
    (fun mask ->
      let model =
        Ml_model.Model.of_parts ?mask ~features_raw:raw ~distributions ()
      in
      let r = Ml_model.Model.export model in
      let points = r.Ml_model.Model.r_features in
      let masked x = match mask with Some _ -> keep x | None -> x in
      let queries =
        [ Array.copy raw.(3); Array.copy raw.(10) ]
        @ List.map
            (fun b ->
              let q = Array.init dim (fun _ -> Prelude.Rng.float rng 2.0 -. 1.0) in
              Array.blit descriptors.(b) 0 q 0 shared;
              q)
            [ 0; 4 ]
        @ [ Array.init dim (fun _ -> 50.0 +. Prelude.Rng.float rng 1.0) ]
      in
      List.iteri
        (fun qi x ->
          let xn =
            Ml_model.Features.normalise r.Ml_model.Model.r_normaliser (masked x)
          in
          let want =
            P.run ~k:(Ml_model.Model.k model) ~beta:(Ml_model.Model.beta model)
              ~points ~distributions xn
          in
          check_same_result
            ~msg:
              (Printf.sprintf "%s query %d"
                 (if mask = None then "unmasked" else "masked") qi)
            (Ml_model.Model.predict_full model x)
            want.P.neighbours want.P.distribution want.P.setting)
        queries)
    [ Some mask; None ]

let test_knn_rejects_bad_input () =
  Alcotest.check_raises "empty matrix"
    (Invalid_argument "Knn.build: empty matrix") (fun () ->
      ignore (Knn.build ~prefix:0 [||]));
  Alcotest.check_raises "ragged matrix"
    (Invalid_argument "Knn.build: ragged matrix") (fun () ->
      ignore (Knn.build ~prefix:0 [| [| 1.0 |]; [| 1.0; 2.0 |] |]));
  Alcotest.check_raises "prefix beyond the row"
    (Invalid_argument "Knn.build: prefix 2 outside 0..1") (fun () ->
      ignore (Knn.build ~prefix:2 [| [| 1.0 |] |]));
  let t = Knn.build ~prefix:1 [| [| 0.0 |]; [| 1.0 |] |] in
  Alcotest.check_raises "k < 1"
    (Invalid_argument "Knn.search: k must be >= 1 (got 0)") (fun () ->
      ignore (Knn.search t ~k:0 [| 0.5 |]));
  Alcotest.check_raises "wrong query dimension"
    (Invalid_argument "Knn.search: query dimension 2, index dimension 1")
    (fun () -> ignore (Knn.search t ~k:1 [| 0.5; 0.5 |]));
  (* k > n clamps to n rather than erroring. *)
  let idxs, _ = Knn.search t ~k:10 [| 0.7 |] in
  check Alcotest.(array int) "k clamps to n" [| 1; 0 |] idxs

(* ---- Shared rows are never written ------------------------------------ *)

(* The bits of every row: a deep copy to compare against later. *)
let row_bits ds = Array.map (Array.map (Array.map Int64.bits_of_float)) ds

let distributions_of (d : Ml_model.Dataset.t) =
  Array.map (fun p -> p.Ml_model.Dataset.distribution) d.Ml_model.Dataset.pairs

(* A trained model holds one array per distinct row, the dataset's
   own.  Predicting, refitting the dataset's good sets
   ([Dataset.with_good_fraction]) and folding more evidence into a
   refit state ([Registry.Refit]) read those rows and never write
   them. *)
let test_shared_rows_never_written () =
  let module M = Ml_model.Model in
  let d = Lazy.force tiny_dataset in
  let predict_all m =
    Array.iter
      (fun (p : Ml_model.Dataset.pair) ->
        ignore (M.predict_full m p.Ml_model.Dataset.features_raw))
      d.Ml_model.Dataset.pairs
  in
  let m = M.train d in
  let ds = (M.export m).M.r_distributions in
  let rows = List.concat_map Array.to_list (Array.to_list ds) in
  let distinct =
    List.sort_uniq compare (List.map (Array.map Int64.bits_of_float) rows)
  in
  let physical =
    List.fold_left
      (fun seen r -> if List.memq r seen then seen else r :: seen)
      [] rows
  in
  check Alcotest.bool "rows repeat" true
    (List.length distinct < List.length rows);
  check Alcotest.int "one array per distinct row" (List.length distinct)
    (List.length physical);
  let unchanged msg before ds =
    check Alcotest.bool msg true (before = row_bits ds)
  in
  let before = row_bits ds and dataset_before = row_bits (distributions_of d) in
  predict_all m;
  unchanged "predicting" before ds;
  predict_all (M.train (Ml_model.Dataset.with_good_fraction d 0.25));
  unchanged "Dataset.with_good_fraction" before ds;
  unchanged "Dataset.with_good_fraction, the dataset's rows" dataset_before
    (distributions_of d);
  let records = Registry.Evidence.of_dataset d in
  let state = Registry.Refit.of_records records in
  let refit () =
    match Registry.Refit.to_model state with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let first = (M.export (refit ())).M.r_distributions in
  let first_before = row_bits first in
  Registry.Refit.fold state records;
  predict_all (refit ());
  unchanged "Registry.Refit, the first refit" first_before first;
  unchanged "Registry.Refit, the trained model" before ds

(* Pricing shares every distribution as it fits it, on whichever domain
   prices the pair: across the dataset, rows of equal bits are one
   array and distributions of equal bits one distribution, and a
   trained model keeps the dataset's own arrays.  The second dataset
   reads the first one's store, so it interprets nothing. *)
let test_dataset_shares_rows () =
  let module M = Ml_model.Model in
  let dir = Filename.temp_dir "test_ml_sharing" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      List.iter
        (fun jobs ->
          with_pool jobs (fun pool ->
              let d =
                Ml_model.Dataset.generate ~store:(Store.open_ ~dir) ~pool
                  tiny_scale
              in
              let at = Printf.sprintf "%s at %d domains" in
              let key row = Array.map Int64.bits_of_float row in
              let rows = Hashtbl.create 64 and whole = Hashtbl.create 64 in
              let n_rows = ref 0 in
              Array.iter
                (fun g ->
                  Array.iter
                    (fun row ->
                      incr n_rows;
                      match Hashtbl.find_opt rows (key row) with
                      | None -> Hashtbl.add rows (key row) row
                      | Some r ->
                        if r != row then
                          Alcotest.fail
                            (at "rows of equal bits are two arrays" jobs))
                    g;
                  let k = Array.map key g in
                  match Hashtbl.find_opt whole k with
                  | None -> Hashtbl.add whole k g
                  | Some g' ->
                    if g' != g then
                      Alcotest.fail
                        (at "distributions of equal bits are two arrays" jobs))
                (distributions_of d);
              check Alcotest.bool (at "rows repeat" jobs) true
                (Hashtbl.length rows < !n_rows);
              let trained = (M.export (M.train d)).M.r_distributions in
              check Alcotest.bool
                (at "the model's distributions are the dataset's arrays" jobs)
                true
                (Array.for_all2 ( == ) trained (distributions_of d))))
        [ 1; 2 ])

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ml"
    [
      ( "distribution",
        [
          quick "fit counts frequencies (eq 5)" test_fit_is_frequency_counting;
          quick "rows normalised" test_fit_rows_normalised;
          quick "mode argmax (eq 1)" test_mode_picks_argmax;
          quick "mixture weights (eq 6)" test_mix_weights;
          quick "empty mixture rejected" test_mix_rejects_empty;
          quick "log likelihood" test_log_likelihood_orders_settings;
          quick "sampling support" test_sample_respects_support;
        ] );
      ( "chain",
        [
          quick "viterbi consensus" test_chain_mode_matches_training_consensus;
          quick "mixture" test_chain_mix;
        ] );
      ( "features",
        [
          quick "dimensions" test_feature_dimensions;
          quick "normaliser" test_normaliser_roundtrip;
          quick "shared prefix" test_shared_prefix;
        ] );
      ( "extensions",
        [
          quick "kmeans separates clusters" test_kmeans_separates_clusters;
          quick "medoids are members" test_kmeans_medoids_are_members;
          quick "clustering selects pairs" test_clustering_selects_pairs;
          quick "static feature shape" test_static_features_shape;
          quick "static features distinguish" test_static_features_distinguish_programs;
        ] );
      ( "dataset+model",
        [
          quick "dataset shape" test_dataset_shape;
          quick "good set selection" test_good_set_selection;
          quick "predictions valid" test_model_prediction_valid;
          quick "k=1 self neighbour" test_model_k1_returns_neighbour_mode;
          quick "crossval outcomes" test_crossval_excludes_test_pair;
          quick "fraction of best" test_fraction_of_best_bounds;
          quick "mutual information ranges" test_mutual_info_nonnegative;
          quick "evaluation cache" test_evaluate_caches_settings;
        ] );
      ( "parallel",
        [
          quick "dataset identical across jobs" test_dataset_identical_across_jobs;
          quick "crossval identical across jobs" test_crossval_identical_across_jobs;
          quick "run_for concurrent stress" test_run_for_concurrent_stress;
          quick "crossval profiles each setting once at any job count"
            test_crossval_profiles_once;
        ] );
      ( "predict-core",
        [
          Alcotest.test_case
            "explicit comparator matches historical sort (seeds 42/43)"
            `Slow test_comparator_matches_historical_sort;
          quick "knn equals the full sort (property sweep)"
            test_knn_equals_full_sort_property;
          quick "engines bit-identical across k and beta"
            test_predict_engines_bit_identical;
          quick "concurrent predict_full bit-exact"
            test_concurrent_predict_full_matches_sequential;
          quick "vptree build deterministic and reloadable"
            test_vptree_build_deterministic_and_reloadable;
          quick "vptree rejects bad input" test_vptree_rejects_bad_input;
          quick "masked model matches the full sort"
            test_masked_model_matches_full_sort;
          quick "knn rejects bad input" test_knn_rejects_bad_input;
        ] );
      ( "sharing",
        [
          quick "shared rows are never written" test_shared_rows_never_written;
          quick "datasets share rows at 1 and 2 domains"
            test_dataset_shares_rows;
        ] );
    ]

