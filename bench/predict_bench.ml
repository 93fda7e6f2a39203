(** Prediction-core benchmark: single-query throughput of the legacy
    row-matrix scan, the flat-kernel scan and the VP-tree search, plus
    the batch API's amortisation win, at several training-set sizes.
    Self-checking — every engine must agree bit-for-bit on every query
    before its numbers count.  Writes results/BENCH_predict.json
    (schema "portopt-predict/1"). *)

module J = Obs.Json

let ensure_results () =
  if not (Sys.file_exists "results") then Unix.mkdir "results" 0o755

let k = 7
let beta = 1.0
let n_queries = 256
let n_centers = 32

(* Synthetic normalised-feature rows, clustered: real training rows
   cluster by program (one program's counter vector moves only mildly
   across configurations), and cluster structure is exactly what a
   metric tree exploits — uniform random data would understate the
   pruning a deployment sees.  Deterministic (fixed seed). *)
let clustered_rows rng ~n ~dim =
  let centers =
    Array.init n_centers (fun _ ->
        Array.init dim (fun _ -> Prelude.Rng.float rng 4.0 -. 2.0))
  in
  Array.init n (fun i ->
      let c = centers.(i mod n_centers) in
      Array.init dim (fun j -> c.(j) +. (0.15 *. Prelude.Rng.gaussian rng)))

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

(* Queries near (but not on) training rows — the cache-miss mix a
   server computes. *)
let queries_of rng rows =
  let n = Array.length rows in
  Array.init n_queries (fun i ->
      Array.map
        (fun v -> v +. (0.05 *. Prelude.Rng.gaussian rng))
        rows.(i * 7919 mod n))

let same_result (a : Ml_model.Predict.result) (b : Ml_model.Predict.result) =
  a.Ml_model.Predict.neighbours = b.Ml_model.Predict.neighbours
  && a.Ml_model.Predict.distribution = b.Ml_model.Predict.distribution
  && a.Ml_model.Predict.setting = b.Ml_model.Predict.setting

(* Calls [f] on the whole query vector, whole passes, for >= [budget]
   seconds; returns queries per second.  Every measured shape maps the
   query vector to a result vector (callers keep predictions), so the
   single-call and batch paths allocate identically and differ only in
   what the batch API amortises. *)
let qps ?(budget = 0.4) queries f =
  let t0 = Unix.gettimeofday () in
  let passes = ref 0 in
  while Unix.gettimeofday () -. t0 < budget do
    ignore (f queries : Ml_model.Predict.result array);
    incr passes
  done;
  float_of_int (!passes * Array.length queries)
  /. (Unix.gettimeofday () -. t0)

let bench_size ~dim n =
  let rng = Prelude.Rng.create (42 + n) in
  let rows = clustered_rows rng ~n ~dim in
  let distributions = Array.init n (fun _ -> random_distribution rng) in
  let index = Ml_model.Vptree.build rows in
  let queries = queries_of rng rows in

  (* Every engine must agree bit-for-bit before any number counts. *)
  Array.iter
    (fun q ->
      let legacy =
        Ml_model.Predict.run ~k ~beta ~points:rows ~distributions q
      in
      let scan =
        Ml_model.Predict.run_indexed ~engine:Ml_model.Predict.Scan ~k ~beta
          ~index ~distributions q
      in
      let tree =
        Ml_model.Predict.run_indexed ~engine:Ml_model.Predict.Vptree ~k ~beta
          ~index ~distributions q
      in
      if not (same_result legacy scan && same_result legacy tree) then
        failwith
          (Printf.sprintf "predict bench: engines diverge at n=%d" n))
    queries;

  let legacy_qps =
    qps queries
      (Array.map (Ml_model.Predict.run ~k ~beta ~points:rows ~distributions))
  in
  let scan_qps =
    qps queries
      (Array.map
         (Ml_model.Predict.run_indexed ~engine:Ml_model.Predict.Scan ~k ~beta
            ~index ~distributions))
  in
  let tree_qps =
    qps queries
      (Array.map
         (Ml_model.Predict.run_indexed ~engine:Ml_model.Predict.Vptree ~k
            ~beta ~index ~distributions))
  in
  (* Batch: whole query vector per call, one scratch across it. *)
  let batch_qps =
    qps queries
      (Ml_model.Predict.run_batch ~engine:Ml_model.Predict.Vptree ~k ~beta
         ~index ~distributions)
  in
  Printf.printf
    "n=%5d: legacy scan %7.0f q/s, flat scan %7.0f q/s, vptree %7.0f q/s \
     (%.1fx over legacy), batch %7.0f q/s (%.2fx over single vptree)\n%!"
    n legacy_qps scan_qps tree_qps (tree_qps /. legacy_qps) batch_qps
    (batch_qps /. tree_qps);
  J.Obj
    [
      ("n", J.Int n);
      ("dim", J.Int dim);
      ("k", J.Int k);
      ("queries", J.Int n_queries);
      ("legacy_qps", J.Float legacy_qps);
      ("flat_scan_qps", J.Float scan_qps);
      ("vptree_qps", J.Float tree_qps);
      ("batch_qps", J.Float batch_qps);
      ("vptree_speedup", J.Float (tree_qps /. legacy_qps));
      ("batch_amortisation", J.Float (batch_qps /. tree_qps));
    ]

(* The batch API's real win is not in the search kernel (both paths run
   the same engine) but at the serving layer: one wire round-trip and
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
  let dim = Ml_model.Features.dim Ml_model.Features.Base in
  let sizes = [ 1000; 5000; 20000 ] in
  let results = List.map (bench_size ~dim) sizes in
  let serving = bench_serving () in
  let out =
    J.Obj
      [
        ("schema", J.Str "portopt-predict/1");
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
