(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (sections 4–7) from scratch, plus the ablations DESIGN.md
    calls out and bechamel micro-benchmarks of the pipeline's building
    blocks.

    Usage:
      bench/main.exe                 run everything
      bench/main.exe fig4 fig6 ...   run selected experiments
      bench/main.exe --list          list experiment names

    Options:
      --trace FILE       write a JSONL run trace (readable by
                         `portopt report FILE`)
      --json FILE        write a BENCH_*.json machine-readable summary
                         (per-experiment wall times + metrics snapshot)
      --log-level LEVEL  quiet | info | debug (default info)

    Scale is controlled by REPRO_UARCHS / REPRO_OPTS / REPRO_SEED
    (defaults 24 / 120 / 42; the paper used 200 / 1000) and parallelism
    by REPRO_JOBS (default: recommended domain count; results are
    bit-identical at any job count).  Experiments sharing a context
    reuse one dataset and one cross-validation sweep. *)

let progress msg = Printf.eprintf "[bench] %s\n%!" msg

let base = lazy (Experiments.Context.create ~progress ())

let extended =
  lazy (Experiments.Context.create ~space:Ml_model.Features.Extended ~progress ())

let experiments : (string * string * (unit -> unit)) list =
  [
    ( "spaces",
      "figure 3 / table 2: optimisation and design space sizes",
      fun () -> print_string (Experiments.Summary.spaces ()) );
    ( "fig1",
      "figure 1: best headline passes for 3 programs x 3 configurations",
      fun () -> print_string (Experiments.Fig1.render (Lazy.force base)) );
    ( "fig4",
      "figure 4: distribution of available speedup per program",
      fun () -> print_string (Experiments.Fig4.render (Lazy.force base)) );
    ( "fig5",
      "figure 5: best vs predicted speedup surface + correlation",
      fun () -> print_string (Experiments.Fig5.render (Lazy.force base)) );
    ( "fig6",
      "figure 6: per-program model vs best (1.16x / 1.23x)",
      fun () -> print_string (Experiments.Fig6.render (Lazy.force base)) );
    ( "fig7",
      "figure 7: per-microarchitecture model vs best, three regions",
      fun () -> print_string (Experiments.Fig7.render (Lazy.force base)) );
    ( "fig8",
      "figure 8: Hinton diagram, optimisation impact per program",
      fun () -> print_string (Experiments.Fig8.render (Lazy.force base)) );
    ( "fig9",
      "figure 9: Hinton diagram, feature/optimisation relation",
      fun () -> print_string (Experiments.Fig9.render (Lazy.force base)) );
    ( "convergence",
      "section 5.3: iterative-compilation evaluations to match the model",
      fun () ->
        print_string (Experiments.Convergence.render (Lazy.force base)) );
    ( "summary",
      "section 5.5: headline numbers (1.16x, 67%, 0.93)",
      fun () -> print_string (Experiments.Summary.render (Lazy.force base)) );
    ( "fig10",
      "figure 10 / section 7: extended space (frequency, issue width)",
      fun () -> print_string (Experiments.Fig10.render (Lazy.force extended)) );
    ( "ablation",
      "ablations: K, beta, good-set threshold, IID vs Markov, features",
      fun () -> print_string (Experiments.Ablation.render (Lazy.force base)) );
    ( "validate",
      "substrate validation: analytic cache model vs exact LRU simulation",
      fun () -> print_string (Experiments.Validation.render ()) );
    ("micro", "bechamel micro-benchmarks of the pipeline", Micro.run);
    ( "predict",
      "prediction core: full sort vs flat scan vs grouped kNN on \
       deployment-shaped and clustered rows, self-checking \
       (results/BENCH_predict.json)",
      fun () -> Predict_bench.run () );
    ( "serve",
      "serving: artifact save/load + server latency/throughput \
       (results/BENCH_serve.json)",
      fun () -> Serve_bench.run (Lazy.force base) );
    ( "store",
      "evaluation store: cold vs warm dataset generation \
       (results/BENCH_store.json)",
      fun () -> Store_bench.run () );
    ( "registry",
      "model registry: refit vs cold retrain, swap latency, A/B per-arm \
       p99 (results/BENCH_registry.json)",
      fun () -> Registry_bench.run () );
    ( "cluster",
      "cluster fabric: local vs 1/2 workers vs chaos, bit-identical \
       (results/BENCH_cluster.json)",
      fun () -> Cluster_bench.run () );
    ( "pareto",
      "multi-objective scenarios: cycles x size x energy, Pareto fronts \
       (results/BENCH_pareto.json)",
      fun () -> Pareto_bench.run (Lazy.force base) );
    ( "csv",
      "export the figure data series to results/*.csv",
      fun () ->
        let paths = Experiments.Export.all (Lazy.force base) ~dir:"results" in
        List.iter (Printf.printf "wrote %s\n") paths );
  ]

(* Hand-rolled option parsing: the harness predates cmdliner use in
   bin/portopt and keeps its positional experiment-name interface. *)
let parse_args args =
  let trace = ref None and json = ref None and list = ref false in
  let names = ref [] in
  let rec go = function
    | [] -> ()
    | "--list" :: rest ->
      list := true;
      go rest
    | "--trace" :: file :: rest ->
      trace := Some file;
      go rest
    | "--json" :: file :: rest ->
      json := Some file;
      go rest
    | "--log-level" :: level :: rest ->
      (match Obs.Trace.level_of_string level with
      | Ok l -> Obs.Trace.set_level l
      | Error msg ->
        Printf.eprintf "bench: %s\n" msg;
        exit 2);
      go rest
    | (("--trace" | "--json" | "--log-level") as opt) :: [] ->
      Printf.eprintf "bench: %s needs an argument\n" opt;
      exit 2
    | name :: rest ->
      names := name :: !names;
      go rest
  in
  go args;
  (!trace, !json, !list, List.rev !names)

(** BENCH_*.json summary: schema "portopt-bench/1" — run provenance,
    scale knobs, per-experiment wall seconds and the final metrics
    snapshot, one self-contained JSON object. *)
let bench_json ~timings () =
  let scale = Ml_model.Dataset.default_scale () in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "portopt-bench/1");
      ("unix_time", Obs.Json.Float (Unix.gettimeofday ()));
      ("git", Obs.Json.Str (Obs.Trace.git_describe ()));
      ("ocaml", Obs.Json.Str Sys.ocaml_version);
      ( "scale",
        Obs.Json.Obj
          [
            ("uarchs", Obs.Json.Int scale.Ml_model.Dataset.n_uarchs);
            ("opts", Obs.Json.Int scale.Ml_model.Dataset.n_opts);
            ("seed", Obs.Json.Int scale.Ml_model.Dataset.seed);
            ("jobs", Obs.Json.Int (Prelude.Pool.jobs ()));
          ] );
      ( "experiments",
        Obs.Json.List
          (List.rev_map
             (fun (name, seconds) ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.Str name);
                   ("seconds", Obs.Json.Float seconds);
                 ])
             timings) );
      ("metrics", Obs.Metrics.snapshot ());
    ]

let () =
  let trace, json, list, names =
    parse_args (List.tl (Array.to_list Sys.argv))
  in
  if list then
    List.iter
      (fun (name, doc, _) -> Printf.printf "%-12s %s\n" name doc)
      experiments
  else begin
    Obs.Span.set_printer (Some progress);
    Option.iter
      (fun file ->
        Obs.Trace.start
          ~manifest:
            [
              ("cmd", Obs.Json.Str "bench");
              ("jobs", Obs.Json.Int (Prelude.Pool.jobs ()));
            ]
          file)
      trace;
    let selected =
      match names with
      | [] -> experiments
      | names ->
        List.iter
          (fun n ->
            if not (List.exists (fun (name, _, _) -> name = n) experiments)
            then begin
              Printf.eprintf
                "unknown experiment %s (use --list to see them)\n" n;
              exit 1
            end)
          names;
        List.filter (fun (name, _, _) -> List.mem name names) experiments
    in
    progress
      (Printf.sprintf "parallelism: %d domain(s) (REPRO_JOBS to change)"
         (Prelude.Pool.jobs ()));
    let timings = ref [] in
    List.iter
      (fun (name, doc, run) ->
        let t0 = Unix.gettimeofday () in
        Printf.printf "==================================================\n";
        Printf.printf "== %s — %s\n" name doc;
        Printf.printf "==================================================\n";
        Obs.Span.with_ ("bench." ^ name) run;
        let dt = Unix.gettimeofday () -. t0 in
        timings := (name, dt) :: !timings;
        Printf.printf "(%s took %.1fs)\n\n%!" name dt)
      selected;
    Option.iter
      (fun file ->
        let oc = open_out file in
        output_string oc (Obs.Json.to_string (bench_json ~timings:!timings ()));
        output_char oc '\n';
        close_out oc;
        progress (Printf.sprintf "wrote %s" file))
      json
  end
