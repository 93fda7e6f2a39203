(** Serving benchmark: artifact save/load cost versus retraining, then
    client-observed latency (cold vs cache-hit) and multi-client
    throughput against an in-process server on a Unix-domain socket.
    Writes a machine-readable summary to results/BENCH_serve.json
    (schema "portopt-serve/1"). *)

module J = Obs.Json

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let latency_stats samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  let mean =
    if Array.length s = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 s /. float_of_int (Array.length s)
  in
  J.Obj
    [
      ("n", J.Int (Array.length s));
      ("mean_ms", J.Float (mean *. 1e3));
      ("p50_ms", J.Float (percentile s 0.5 *. 1e3));
      ("p99_ms", J.Float (percentile s 0.99 *. 1e3));
      ("max_ms", J.Float (percentile s 1.0 *. 1e3));
    ]

let ensure_results () =
  if not (Sys.file_exists "results") then Unix.mkdir "results" 0o755

let run ctx =
  ensure_results ();
  let dataset = Experiments.Context.dataset ctx in
  let scale = dataset.Ml_model.Dataset.scale in

  (* Artifact: train, save, load; loading must beat retraining by a
     couple of orders of magnitude. *)
  let t0 = Unix.gettimeofday () in
  let model = Ml_model.Model.train dataset in
  let train_s = Unix.gettimeofday () -. t0 in
  let artifact =
    {
      Serve.Artifact.model;
      space = scale.Ml_model.Dataset.space;
      meta = [ ("bench", J.Bool true) ];
    }
  in
  let path = Filename.concat "results" "model_bench.pcm" in
  let t0 = Unix.gettimeofday () in
  Serve.Artifact.save ~path artifact;
  let save_s = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let loaded =
    match Serve.Artifact.read ~path with
    | Ok loaded -> loaded
    | Error e -> failwith e
  in
  let load_s = Unix.gettimeofday () -. t0 in
  let bytes = (Unix.stat path).Unix.st_size in
  Printf.printf
    "artifact: %d pairs, %d bytes; train %.3fs, save %.1fms, load %.1fms \
     (%.0fx faster than training)\n"
    (Ml_model.Model.n_points model)
    bytes train_s (save_s *. 1e3) (load_s *. 1e3) (train_s /. load_s);

  (* Query set: one (counters, uarch) per dataset pair — the realistic
     request mix a deployment would see. *)
  let n_progs = Ml_model.Dataset.n_programs dataset in
  let n_uarchs = Ml_model.Dataset.n_uarchs dataset in
  let queries =
    Array.init
      (min 64 (n_progs * n_uarchs))
      (fun i ->
        let p = i / n_uarchs and u = i mod n_uarchs in
        let uarch = dataset.Ml_model.Dataset.uarchs.(u) in
        let v = Sim.Xtrem.time dataset.Ml_model.Dataset.o3_runs.(p) uarch in
        (v.Sim.Pipeline.counters, uarch))
  in

  let socket = Filename.concat "results" "serve_bench.sock" in
  let config =
    {
      (Serve.Server.default_config (Net.Addr.Unix_path socket)) with
      Serve.Server.jobs = Prelude.Pool.jobs ();
      cache_capacity = 1024;
    }
  in
  let server = Serve.Server.start ~artifact:loaded config in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Server.wait server)
    (fun () ->
      let address = Serve.Server.address server in
      let round_trip client (counters, uarch) =
        let t0 = Unix.gettimeofday () in
        match Serve.Client.predict client ~counters ~uarch with
        | Ok _ -> Unix.gettimeofday () -. t0
        | Error (code, msg) ->
          failwith (Printf.sprintf "serve bench: error %d: %s" code msg)
      in
      (* Latency, single client: first pass is all cache misses, second
         pass all hits. *)
      let client = Serve.Client.connect address in
      let cold = Array.map (round_trip client) queries in
      let cached = Array.map (round_trip client) queries in
      Serve.Client.close client;

      (* Throughput: several clients hammering the cached working set
         concurrently — measures the socket + dispatch path. *)
      let threads = 4 and per_thread = 250 in
      let t0 = Unix.gettimeofday () in
      let workers =
        Array.init threads (fun ti ->
            Thread.create
              (fun () ->
                let client = Serve.Client.connect address in
                for i = 0 to per_thread - 1 do
                  ignore
                    (round_trip client
                       queries.((ti + i) mod Array.length queries))
                done;
                Serve.Client.close client)
              ())
      in
      Array.iter Thread.join workers;
      let wall_s = Unix.gettimeofday () -. t0 in
      let rps = float_of_int (threads * per_thread) /. wall_s in
      Printf.printf
        "latency: cold p50 %.2fms, cached p50 %.2fms; throughput: %.0f \
         req/s (%d clients x %d requests)\n"
        (percentile
           (let s = Array.copy cold in Array.sort Float.compare s; s)
           0.5
        *. 1e3)
        (percentile
           (let s = Array.copy cached in Array.sort Float.compare s; s)
           0.5
        *. 1e3)
        rps threads per_thread;

      (* Connection-count sweep: the same cached working set hammered by
         an increasing number of concurrent clients, up to well past
         what a thread-per-connection server could hold.  Sheds (429)
         are counted, not failed: the knee in p99-vs-clients and the
         shed-rate curve together show where the loop saturates. *)
      let sweep_counts = [ 50; 200; 500; 1000 ] in
      let sweep =
        List.map
          (fun clients ->
            let reqs = max 2 (2000 / clients) in
            let lats = Array.make_matrix clients reqs nan in
            let sheds = Array.make clients 0 in
            let errors = Array.make clients 0 in
            let t0 = Unix.gettimeofday () in
            let threads =
              Array.init clients (fun ti ->
                  Thread.create
                    (fun () ->
                      match Serve.Client.connect address with
                      | exception _ -> errors.(ti) <- errors.(ti) + reqs
                      | client ->
                        Fun.protect
                          ~finally:(fun () -> Serve.Client.close client)
                          (fun () ->
                            for i = 0 to reqs - 1 do
                              let counters, uarch =
                                queries.((ti + i) mod Array.length queries)
                              in
                              let q0 = Unix.gettimeofday () in
                              match
                                Serve.Client.predict client ~counters ~uarch
                              with
                              | Ok _ ->
                                lats.(ti).(i) <- Unix.gettimeofday () -. q0
                              | Error (429, _) -> sheds.(ti) <- sheds.(ti) + 1
                              | Error _ -> errors.(ti) <- errors.(ti) + 1
                            done))
                    ())
            in
            Array.iter Thread.join threads;
            let wall_s = Unix.gettimeofday () -. t0 in
            let ok =
              Array.to_seq lats
              |> Seq.concat_map Array.to_seq
              |> Seq.filter (fun x -> not (Float.is_nan x))
              |> Array.of_seq
            in
            Array.sort Float.compare ok;
            let total = clients * reqs in
            let shed = Array.fold_left ( + ) 0 sheds in
            let errs = Array.fold_left ( + ) 0 errors in
            let p50 = percentile ok 0.5 *. 1e3
            and p99 = percentile ok 0.99 *. 1e3 in
            let shed_rate = float_of_int shed /. float_of_int total in
            Printf.printf
              "sweep: %4d clients  p50 %7.2fms  p99 %7.2fms  shed %5.1f%%  \
               %.0f req/s\n%!"
              clients p50 p99 (100.0 *. shed_rate)
              (float_of_int (Array.length ok) /. wall_s);
            J.Obj
              [
                ("clients", J.Int clients);
                ("requests", J.Int total);
                ("ok", J.Int (Array.length ok));
                ("shed", J.Int shed);
                ("errors", J.Int errs);
                ("wall_s", J.Float wall_s);
                ("p50_ms", J.Float p50);
                ("p99_ms", J.Float p99);
                ("shed_rate", J.Float shed_rate);
                ( "requests_per_s",
                  J.Float (float_of_int (Array.length ok) /. wall_s) );
              ])
          sweep_counts
      in

      let health =
        let c = Serve.Client.connect address in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match Serve.Client.health c with
            | Ok j -> j
            | Error (_, e) -> failwith ("serve bench: health: " ^ e))
      in
      let out =
        J.Obj
          [
            ("schema", J.Str "portopt-serve/1");
            ("unix_time", J.Float (Unix.gettimeofday ()));
            ("git", J.Str (Obs.Trace.git_describe ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ( "scale",
              J.Obj
                [
                  ("uarchs", J.Int scale.Ml_model.Dataset.n_uarchs);
                  ("opts", J.Int scale.Ml_model.Dataset.n_opts);
                  ("seed", J.Int scale.Ml_model.Dataset.seed);
                  ("jobs", J.Int (Prelude.Pool.jobs ()));
                ] );
            ( "artifact",
              J.Obj
                [
                  ("bytes", J.Int bytes);
                  ("pairs", J.Int (Ml_model.Model.n_points model));
                  ("train_s", J.Float train_s);
                  ("save_s", J.Float save_s);
                  ("load_s", J.Float load_s);
                  ("load_speedup", J.Float (train_s /. load_s));
                ] );
            ( "latency",
              J.Obj
                [
                  ("cold", latency_stats cold); ("cached", latency_stats cached);
                ] );
            ( "throughput",
              J.Obj
                [
                  ("clients", J.Int threads);
                  ("requests", J.Int (threads * per_thread));
                  ("wall_s", J.Float wall_s);
                  ("requests_per_s", J.Float rps);
                ] );
            ("sweep", J.List sweep);
            ("health", health);
          ]
      in
      let out_path = Filename.concat "results" "BENCH_serve.json" in
      let oc = open_out out_path in
      output_string oc (J.to_string out);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" out_path)
