(** Registry benchmark: incremental refit versus cold retrain on the
    union ledger (with the byte-identity the registry's dedup relies on
    checked on the way), publish cost, hot-swap installation latency,
    and per-arm client latency during an A/B split.  Writes a
    machine-readable summary to results/BENCH_registry.json (schema
    "portopt-registry/1"). *)

module J = Obs.Json

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let stats samples =
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

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run () =
  ensure_results ();
  let scale = Ml_model.Dataset.default_scale () in
  let d1 = Ml_model.Dataset.generate scale in
  let d2 =
    Ml_model.Dataset.generate
      { scale with Ml_model.Dataset.seed = scale.Ml_model.Dataset.seed + 1 }
  in
  let e1 = Registry.Evidence.of_dataset d1 in
  let e2 = Registry.Evidence.of_dataset d2 in

  (* Refit vs cold retrain: fold the delta into a live counts state
     versus one fit of the whole union ledger.  Both must produce the
     same artifact bytes — the identity everything downstream trusts. *)
  let state = Registry.Refit.of_records e1 in
  let refit_model, refit_s =
    timed (fun () ->
        Registry.Refit.fold state e2;
        match Registry.Refit.to_model state with
        | Ok m -> m
        | Error e -> failwith ("registry bench: refit: " ^ e))
  in
  let cold_model, cold_s =
    timed (fun () ->
        match Registry.Refit.to_model (Registry.Refit.of_records (e1 @ e2)) with
        | Ok m -> m
        | Error e -> failwith ("registry bench: cold: " ^ e))
  in
  let encode model =
    String.concat ""
      (Serve.Artifact.encode
         {
           Serve.Artifact.model;
           space = scale.Ml_model.Dataset.space;
           meta = [];
         })
        .Prelude.Envelope.chunks
  in
  if encode refit_model <> encode cold_model then
    failwith "registry bench: refit diverged from the cold retrain";
  Printf.printf
    "refit: %d+%d records into %d pairs; incremental %.1fms vs cold %.1fms \
     (%.1fx), byte-identical\n"
    (List.length e1) (List.length e2)
    (Registry.Refit.pairs state)
    (refit_s *. 1e3) (cold_s *. 1e3) (cold_s /. refit_s);

  (* Publish: end-to-end registry cost (fit + encode + atomic writes). *)
  let dir = Filename.concat "results" "registry_bench" in
  let reg = Registry.open_ ~dir in
  let now = Unix.gettimeofday () in
  let l1, publish_v1_s =
    timed (fun () ->
        match Registry.publish ~channel:"stable" ~created:now reg e1 with
        | Ok l -> l
        | Error e -> failwith ("registry bench: publish v1: " ^ e))
  in
  let l2, publish_v2_s =
    timed (fun () ->
        match
          Registry.publish ~parent:l1.Registry.l_id ~channel:"candidate"
            ~created:(now +. 1.0) reg e2
        with
        | Ok l -> l
        | Error e -> failwith ("registry bench: publish v2: " ^ e))
  in
  Printf.printf "publish: v1 %.1fms, refit v2 %.1fms (%s -> %s)\n"
    (publish_v1_s *. 1e3) (publish_v2_s *. 1e3)
    (String.sub l1.Registry.l_id 0 8)
    (String.sub l2.Registry.l_id 0 8);

  (* Hot swap: installation latency of a full routing replacement. *)
  let artifact_of d =
    let a =
      {
        Serve.Artifact.model = Ml_model.Model.train d;
        space = scale.Ml_model.Dataset.space;
        meta = [ ("bench", J.Bool true) ];
      }
    in
    (Serve.Artifact.version_id a, a)
  in
  let a = artifact_of d1 and b = artifact_of d2 in
  let socket = Filename.concat "results" "registry_bench.sock" in
  let config =
    {
      (Serve.Server.default_config (Net.Addr.Unix_path socket)) with
      Serve.Server.jobs = Prelude.Pool.jobs ();
      cache_capacity = 1024;
      split = 0.5;
    }
  in
  let server = Serve.Server.start ~candidate:b ~artifact:a config in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Server.wait server)
    (fun () ->
      let address = Serve.Server.address server in
      let swaps = 200 in
      let swap_samples =
        Array.init swaps (fun i ->
            let stable = if i mod 2 = 0 then b else a in
            snd
              (timed (fun () ->
                   Serve.Server.install server ~stable ~candidate:(Some b))))
      in
      (* Leave the A/B pair in a known state for the hammer below. *)
      Serve.Server.install server ~stable:a ~candidate:(Some b);

      (* A/B hammer: several clients over the full query mix; per-arm
         latency then comes from the server's own serve.ab.* metrics. *)
      let n_uarchs = Ml_model.Dataset.n_uarchs d1 in
      let queries =
        Array.init
          (min 64 (Ml_model.Dataset.n_programs d1 * n_uarchs))
          (fun i ->
            let p = i / n_uarchs and u = i mod n_uarchs in
            let uarch = d1.Ml_model.Dataset.uarchs.(u) in
            let v = Sim.Xtrem.time d1.Ml_model.Dataset.o3_runs.(p) uarch in
            (v.Sim.Pipeline.counters, uarch))
      in
      let threads = 4 and per_thread = 200 in
      let workers =
        Array.init threads (fun ti ->
            Thread.create
              (fun () ->
                let client = Serve.Client.connect address in
                for i = 0 to per_thread - 1 do
                  let counters, uarch =
                    queries.((ti + i) mod Array.length queries)
                  in
                  match Serve.Client.predict client ~counters ~uarch with
                  | Ok _ -> ()
                  | Error (code, e) ->
                    failwith
                      (Printf.sprintf "registry bench: predict %d: %s" code e)
                done;
                Serve.Client.close client)
              ())
      in
      Array.iter Thread.join workers;
      let metrics =
        let c = Serve.Client.connect address in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match Serve.Client.metrics c with
            | Ok m -> m
            | Error (_, e) -> failwith ("registry bench: metrics: " ^ e))
      in
      let arm label =
        let requests =
          Option.value ~default:0
            (Option.bind (J.member "counters" metrics) (fun c ->
                 Option.bind
                   (J.member (Printf.sprintf "serve.ab.%s.requests" label) c)
                   J.to_int))
        in
        let p99 =
          Option.bind (J.member "histograms" metrics) (fun h ->
              Option.bind
                (J.member (Printf.sprintf "serve.ab.%s.seconds" label) h)
                (fun h -> Obs.Metrics.quantile_of_json h 0.99))
        in
        (requests, p99)
      in
      let s_req, s_p99 = arm "stable" and c_req, c_p99 = arm "candidate" in
      let ms = function Some s -> s *. 1e3 | None -> 0.0 in
      Printf.printf
        "swap: p50 %.3fms, p99 %.3fms over %d installs; A/B 50%%: stable %d \
         req p99 %.2fms, candidate %d req p99 %.2fms\n"
        (percentile
           (let s = Array.copy swap_samples in Array.sort Float.compare s; s)
           0.5
        *. 1e3)
        (percentile
           (let s = Array.copy swap_samples in Array.sort Float.compare s; s)
           0.99
        *. 1e3)
        swaps s_req (ms s_p99) c_req (ms c_p99);

      let out =
        J.Obj
          [
            ("schema", J.Str "portopt-registry/1");
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
            ( "refit",
              J.Obj
                [
                  ("records_base", J.Int (List.length e1));
                  ("records_delta", J.Int (List.length e2));
                  ("pairs", J.Int (Registry.Refit.pairs state));
                  ("incremental_s", J.Float refit_s);
                  ("cold_s", J.Float cold_s);
                  ("speedup", J.Float (cold_s /. refit_s));
                  ("byte_identical", J.Bool true);
                ] );
            ( "publish",
              J.Obj
                [
                  ("v1_s", J.Float publish_v1_s);
                  ("v2_refit_s", J.Float publish_v2_s);
                  ("v1", J.Str l1.Registry.l_id);
                  ("v2", J.Str l2.Registry.l_id);
                ] );
            ("swap", stats swap_samples);
            ( "ab",
              J.Obj
                [
                  ("split", J.Float 0.5);
                  ( "stable",
                    J.Obj
                      [
                        ("requests", J.Int s_req);
                        ("p99_ms", J.Float (ms s_p99));
                      ] );
                  ( "candidate",
                    J.Obj
                      [
                        ("requests", J.Int c_req);
                        ("p99_ms", J.Float (ms c_p99));
                      ] );
                ] );
          ]
      in
      let out_path = Filename.concat "results" "BENCH_registry.json" in
      let oc = open_out out_path in
      output_string oc (J.to_string out);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" out_path)
