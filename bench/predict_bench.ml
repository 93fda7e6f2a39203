(** Prediction-core benchmark: single-query throughput of the full sort
    ({!Ml_model.Predict.run}), the flat scan and the grouped {!Ml_model.Knn}
    search, on two row shapes at several training-set sizes, plus the
    serving layer's batch amortisation.  Self-checking: every query's
    prediction through each index must equal the full sort's bit for bit
    before any number counts.  Writes results/BENCH_predict.json (schema
    "portopt-predict/2"). *)

module J = Obs.Json

let ensure_results () =
  if not (Sys.file_exists "results") then Unix.mkdir "results" 0o755

let k = 7
let beta = 1.0
let n_queries = 256
let n_centers = 32
let dim = Ml_model.Features.dim Ml_model.Features.Base
let descriptors = Ml_model.Features.descriptor_dim Ml_model.Features.Base

(* The shape a trained model has: [u] configurations x [p] programs, one
   row per pair, program-major as a dataset lays its pairs out.  A row is
   its configuration's descriptors ({!Uarch.Config.descriptors} of a
   configuration drawn from the base space) followed by its program's
   counters, which move mildly with the configuration; rows and queries
   are z-score normalised over the rows, as a model's are.  Queries pair
   a program with a configuration no row was trained on, as the served
   stream does.  Deterministic (fixed seeds). *)
let deployment rng ~u ~p =
  let configs =
    Array.map Uarch.Config.descriptors
      (Uarch.Space.sample Uarch.Space.Base ~seed:(17 + u) (u + n_queries))
  in
  let programs =
    Array.init p (fun _ ->
        Array.init (dim - descriptors) (fun _ -> Prelude.Rng.float rng 4.0 -. 2.0))
  in
  let row d prog =
    Array.append d
      (Array.map (fun c -> c +. (0.2 *. Prelude.Rng.gaussian rng)) programs.(prog))
  in
  let rows = Array.init (u * p) (fun i -> row configs.(i mod u) (i / u)) in
  let queries = Array.init n_queries (fun i -> row configs.(u + i) (i mod p)) in
  let normaliser = Ml_model.Features.fit_normaliser rows in
  let normalise = Array.map (Ml_model.Features.normalise normaliser) in
  (normalise rows, normalise queries)

(* No shared columns: rows scattered round 32 tight Gaussian centres.
   Every row is its own group, so the search is a flat scan that skips a
   row once its descriptor columns alone are too far. *)
let clustered rng ~n =
  let centers =
    Array.init n_centers (fun _ ->
        Array.init dim (fun _ -> Prelude.Rng.float rng 4.0 -. 2.0))
  in
  let rows =
    Array.init n (fun i ->
        let c = centers.(i mod n_centers) in
        Array.init dim (fun j -> c.(j) +. (0.15 *. Prelude.Rng.gaussian rng)))
  in
  (* Queries near (but not on) training rows. *)
  let queries =
    Array.init n_queries (fun i ->
        Array.map
          (fun v -> v +. (0.05 *. Prelude.Rng.gaussian rng))
          rows.(i * 7919 mod n))
  in
  (rows, queries)

(* Per-row distributions with the real shape (one multinomial row per
   optimisation dimension), randomised so the mixture stage does real
   work. *)
let random_distribution rng =
  Array.map
    (fun row ->
      let r = Array.map (fun _ -> 0.1 +. Prelude.Rng.float rng 1.0) row in
      let s = Array.fold_left ( +. ) 0.0 r in
      Array.map (fun v -> v /. s) r)
    (Ml_model.Distribution.uniform ())

let bits a = Array.map Int64.bits_of_float a

let same_result (a : Ml_model.Predict.result) (b : Ml_model.Predict.result) =
  let ns (r : Ml_model.Predict.result) =
    Array.map
      (fun (nb : Ml_model.Predict.neighbour) ->
        (nb.index, Int64.bits_of_float nb.distance, Int64.bits_of_float nb.weight))
      r.Ml_model.Predict.neighbours
  in
  ns a = ns b
  && Array.map bits a.Ml_model.Predict.distribution
     = Array.map bits b.Ml_model.Predict.distribution
  && a.Ml_model.Predict.setting = b.Ml_model.Predict.setting

(* Calls [f] on every query, whole passes, for >= [budget] seconds;
   returns queries per second. *)
let qps ?(budget = 0.4) queries f =
  let t0 = Unix.gettimeofday () in
  let passes = ref 0 in
  while Unix.gettimeofday () -. t0 < budget do
    Array.iter (fun q -> ignore (f q : Ml_model.Predict.result)) queries;
    incr passes
  done;
  float_of_int (!passes * Array.length queries)
  /. (Unix.gettimeofday () -. t0)

let bench_shape ~shape ~n (rows, queries) =
  let rng = Prelude.Rng.create (7 + n) in
  let distributions = Array.init n (fun _ -> random_distribution rng) in
  let grouped = Ml_model.Knn.build ~prefix:descriptors rows in
  let flat = Ml_model.Knn.build ~prefix:0 rows in
  let full = Ml_model.Predict.run ~k ~beta ~points:rows ~distributions in
  let through index =
    Ml_model.Predict.run_indexed ~k ~beta ~index ~distributions
  in
  (* Every index must agree bit for bit before any number counts. *)
  Array.iteri
    (fun qi q ->
      let want = full q in
      if not (same_result want (through flat q) && same_result want (through grouped q))
      then
        failwith
          (Printf.sprintf "predict bench: %s n=%d query %d diverges from the full sort"
             shape n qi))
    queries;
  let full_qps = qps queries full in
  let flat_qps = qps queries (through flat) in
  let grouped_qps = qps queries (through grouped) in
  Printf.printf
    "%-10s n=%5d (%5d groups): full sort %7.0f q/s, flat scan %7.0f q/s, \
     grouped %7.0f q/s (%.1fx over the full sort, %.1fx over the flat scan)\n%!"
    shape n (Ml_model.Knn.groups grouped) full_qps flat_qps grouped_qps
    (grouped_qps /. full_qps) (grouped_qps /. flat_qps);
  J.Obj
    [
      ("shape", J.Str shape);
      ("n", J.Int n);
      ("dim", J.Int dim);
      ("groups", J.Int (Ml_model.Knn.groups grouped));
      ("k", J.Int k);
      ("queries", J.Int n_queries);
      ("full_sort_qps", J.Float full_qps);
      ("flat_scan_qps", J.Float flat_qps);
      ("grouped_qps", J.Float grouped_qps);
      ("grouped_speedup", J.Float (grouped_qps /. full_qps));
    ]

let bench_size (u, p) =
  let n = u * p in
  let rng = Prelude.Rng.create (42 + n) in
  let deployed = bench_shape ~shape:"deployment" ~n (deployment rng ~u ~p) in
  [ deployed; bench_shape ~shape:"clustered" ~n (clustered rng ~n) ]

(* The batch API's win is at the serving layer: one wire round-trip and
   one pool task instead of N.  Measure it end to end against a real
   server on a Unix socket, comparing N sequential single predicts with
   one predict_batch of the same N queries — once cold (cache off,
   request cost dominated by the prediction itself) and once warm
   (cache on, request cost pure framing + dispatch, which is exactly
   what the batch op amortises). *)
let bench_serving () =
  let scale =
    {
      Ml_model.Dataset.n_uarchs = 4;
      n_opts = 16;
      seed = 42;
      space = Ml_model.Features.Base;
      good_fraction = 0.1;
    }
  in
  let dataset = Ml_model.Dataset.generate scale in
  let model = Ml_model.Model.train dataset in
  let artifact =
    {
      Serve.Artifact.model;
      space = scale.Ml_model.Dataset.space;
      meta = [ ("bench", Obs.Json.Bool true) ];
    }
  in
  let n_uarchs = Ml_model.Dataset.n_uarchs dataset in
  let n_queries =
    min 64 (Ml_model.Dataset.n_programs dataset * n_uarchs)
  in
  let queries =
    Array.init n_queries (fun i ->
        let p = i / n_uarchs and u = i mod n_uarchs in
        let uarch = dataset.Ml_model.Dataset.uarchs.(u) in
        let v = Sim.Xtrem.time dataset.Ml_model.Dataset.o3_runs.(p) uarch in
        (v.Sim.Pipeline.counters, uarch))
  in
  let measure ~address ~jobs ~cache_capacity =
    let config =
      {
        (Serve.Server.default_config address) with
        Serve.Server.jobs;
        cache_capacity;
      }
    in
    let server =
      Serve.Server.start
        ~artifact:(Serve.Artifact.version_id artifact, artifact)
        config
    in
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.stop server;
        Serve.Server.wait server)
      (fun () ->
        let client = Serve.Client.connect (Serve.Server.address server) in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close client)
          (fun () ->
            let fail (code, msg) =
              failwith (Printf.sprintf "predict bench: error %d: %s" code msg)
            in
            let singles () =
              Array.iter
                (fun (counters, uarch) ->
                  match Serve.Client.predict client ~counters ~uarch with
                  | Ok _ -> ()
                  | Error e -> fail e)
                queries
            in
            let batch () =
              match Serve.Client.predict_batch client queries with
              | Ok _ -> ()
              | Error e -> fail e
            in
            (* Warm both paths once (fills the cache when there is
               one), then time whole passes. *)
            singles ();
            batch ();
            let time_qps f =
              let t0 = Unix.gettimeofday () in
              let passes = ref 0 in
              while Unix.gettimeofday () -. t0 < 1.0 do
                f ();
                incr passes
              done;
              float_of_int (!passes * n_queries)
              /. (Unix.gettimeofday () -. t0)
            in
            let single_rps = time_qps singles in
            let batch_rps = time_qps batch in
            (* Health round-trips carry a near-empty payload, so their
               rate isolates the fixed per-request cost (framing,
               syscalls, dispatch) — the part a batch amortises. *)
            let health () =
              for _ = 1 to n_queries do
                match Serve.Client.health client with
                | Ok _ -> ()
                | Error e -> fail e
              done
            in
            let health_rps = time_qps health in
            (single_rps, batch_rps, health_rps)))
  in
  let unix_address =
    Net.Addr.Unix_path (Filename.concat "results" "predict_bench.sock")
  in
  let tcp_address = Net.Addr.Tcp ("127.0.0.1", 0) in
  let cold_single, cold_batch, _ =
    measure ~address:unix_address ~jobs:1 ~cache_capacity:0
  in
  let warm_single, warm_batch, health_rps =
    measure ~address:unix_address ~jobs:1 ~cache_capacity:1024
  in
  let tcp_single, tcp_batch, tcp_health =
    measure ~address:tcp_address ~jobs:1 ~cache_capacity:1024
  in
  Printf.printf
    "serving (%d queries/mix, unix socket): cold singles %7.0f q/s vs one \
     batch %7.0f q/s (%.2fx); warm singles %7.0f q/s vs one batch %7.0f \
     q/s (%.2fx; empty round-trips %.0f/s)\n%!"
    n_queries cold_single cold_batch
    (cold_batch /. cold_single)
    warm_single warm_batch
    (warm_batch /. warm_single)
    health_rps;
  Printf.printf
    "serving (%d queries/mix, tcp loopback): warm singles %7.0f q/s vs \
     one batch %7.0f q/s (%.2fx wire amortisation; empty round-trips \
     %.0f/s)\n%!"
    n_queries tcp_single tcp_batch
    (tcp_batch /. tcp_single)
    tcp_health;
  J.Obj
    [
      ("queries", J.Int n_queries);
      ("pairs", J.Int (Ml_model.Model.n_points model));
      ("cold_single_rps", J.Float cold_single);
      ("cold_batch_rps", J.Float cold_batch);
      ("cold_batch_amortisation", J.Float (cold_batch /. cold_single));
      ("warm_single_rps", J.Float warm_single);
      ("warm_batch_rps", J.Float warm_batch);
      ("warm_batch_amortisation", J.Float (warm_batch /. warm_single));
      ("empty_round_trips_per_s", J.Float health_rps);
      ("tcp_warm_single_rps", J.Float tcp_single);
      ("tcp_warm_batch_rps", J.Float tcp_batch);
      ("tcp_warm_batch_amortisation", J.Float (tcp_batch /. tcp_single));
      ("tcp_empty_round_trips_per_s", J.Float tcp_health);
    ]

let run () =
  ensure_results ();
  (* 7,000 pairs is the paper's 200 configurations x 35 programs. *)
  let sizes = [ (40, 25); (200, 35); (800, 25) ] in
  let results = List.concat_map bench_size sizes in
  let serving = bench_serving () in
  let out =
    J.Obj
      [
        ("schema", J.Str "portopt-predict/2");
        ("unix_time", J.Float (Unix.gettimeofday ()));
        ("git", J.Str (Obs.Trace.git_describe ()));
        ("ocaml", J.Str Sys.ocaml_version);
        ("sizes", J.List results);
        ("serving", serving);
      ]
  in
  let out_path = Filename.concat "results" "BENCH_predict.json" in
  let oc = open_out out_path in
  output_string oc (J.to_string out);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out_path
