(** Command-line interface to the portable optimising compiler.

    Subcommands:
    - [list]     the 35 MiBench-like workloads with their rationale
    - [dump]     print a workload's IR, optionally after a pass pipeline
    - [run]      compile, interpret and time a workload on a configuration
    - [exec]     parse a textual IR file (dump's format) and run it
    - [spaces]   the optimisation and design space cardinalities
    - [predict]  train the model (or load a saved one) and predict the
                 best passes for a workload on a configuration described
                 on the command line
    - [train]    train the model and freeze it to a .pcm artifact
    - [crossval] leave-one-out cross-validation summary
    - [serve]    serve predictions from a .pcm artifact over a socket
    - [query]    ask a running server for a prediction (or health)
    - [worker]   serve cluster evaluation leases for a train/crossval
                 coordinator (see --workers on train/crossval)
    - [flags]    show the optimisation dimensions and the -O3 defaults
    - [report]   validate JSONL run traces and stitch them, one file or
                 many, into one report: causal tree, time by span name
    - [metrics]  fetch a live metrics snapshot from a server or cluster
                 coordinator (JSON or Prometheus text exposition)
    - [top]      polling dashboard over a running prediction server
    - [store]    inspect and maintain an evaluation store (stats/gc/verify)

    The pipeline subcommands (run, exec, predict) accept [--trace FILE]
    to record a structured JSONL trace of the run (manifest, nested
    spans, per-pass timings, final metric totals) and [--log-level] to
    control both stderr progress lines and trace verbosity.  Tracing is
    observational only: results are bit-identical with it on or off.

    The expensive subcommands (run, predict, train, crossval) accept
    [--store DIR], a content-addressed on-disk cache of interpreter
    profiles: a warm store makes reruns incremental — identical
    results, zero interpretations for anything already profiled. *)

open Cmdliner

(* A workload by name; an unknown name is a command-line error. *)
let program_of_name name =
  match
    Array.find_opt (fun s -> s.Workloads.Spec.name = name) Workloads.Mibench.all
  with
  | Some spec -> Ok spec
  | None ->
    Error (Printf.sprintf "unknown program %S (see the list subcommand)" name)

let prog_arg =
  let doc = "Benchmark name (see the list subcommand)." in
  Term.term_result'
    Term.(const program_of_name
          $ Arg.(required & pos 0 (some string) None
                 & info [] ~docv:"PROGRAM" ~doc))

let ( let* ) = Result.bind

(* A run-time failure: one line on stderr, then exit [code].  A bad
   option value never gets here: each term checks its own while the
   arguments parse (one line, exit 124, nothing started). *)
let fail ~code fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "portopt: %s\n" m;
      exit code)
    fmt

(* A bad REPRO_* value is a one-line command-line error: the
   [Invalid_argument] that reading it raises becomes [Error]. *)
let of_env f =
  match f () with v -> Ok v | exception Invalid_argument e -> Error e

(* A one-line command-line error naming the option, the value typed and
   what was [expected]. *)
let invalid name value ~expected =
  Error
    (Printf.sprintf "option '--%s': invalid value '%s', expected %s" name value
       expected)

(* A numeric option whose value [valid] rejects is an [invalid] one. *)
let check_value show name ~expected valid v =
  if valid v then Ok v else invalid name (show v) ~expected

let check_int = check_value string_of_int

let check_positive_int name =
  check_int name ~expected:"a positive integer" (( < ) 0)

let check_positive name =
  check_value (Printf.sprintf "%g") name ~expected:"a positive number"
    (fun v -> v > 0.0)

(* A text option that [parse] rejects: the option, then [parse]'s
   reason, which quotes what was typed. *)
let parsed name parse s =
  Result.map_error (Printf.sprintf "option '--%s': %s" name) (parse s)

(* [check] lifted to an option that may be absent. *)
let optional check = function
  | None -> Ok None
  | Some v -> Result.map Option.some (check v)

(* A dataset scale: the REPRO_* defaults, overridden by the positive
   counts given, with REPRO_JOBS checked alongside for the pool that
   builds it. *)
let scale_of ?uarchs ?opts () =
  let* uarchs = optional (check_positive_int "train-uarchs") uarchs in
  let* opts = optional (check_positive_int "train-opts") opts in
  let* s =
    of_env (fun () ->
        ignore (Prelude.Pool.jobs ());
        Ml_model.Dataset.default_scale ())
  in
  Ok
    {
      s with
      Ml_model.Dataset.n_uarchs =
        Option.value uarchs ~default:s.Ml_model.Dataset.n_uarchs;
      n_opts = Option.value opts ~default:s.Ml_model.Dataset.n_opts;
    }

(* Telemetry options shared by the pipeline subcommands.  The term
   evaluates to a thunk that the command's [run] forces first, so
   option errors surface through cmdliner before any side effect
   happens. *)
let obs_term cmd =
  let trace =
    let doc =
      "Write a JSONL run trace to $(docv): a manifest event (seed, \
       scale, git describe, argv), nested spans for every pipeline \
       stage (dataset generation, cross-validation, per-pass compile, \
       simulation) and the final counter/histogram totals.  Inspect it \
       with the $(b,report) subcommand."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let trace_id =
    let doc =
      "Trace id recorded in the manifest (default: generated).  A \
       parent process passes its own id to children so the per-process \
       files stitch into one causal tree ($(b,report) with several \
       files)."
    in
    Arg.(value & opt (some string) None
         & info [ "trace-id" ] ~docv:"ID" ~doc)
  in
  let level =
    let doc =
      "Verbosity for stderr progress lines and the trace: $(b,quiet), \
       $(b,info) (default) or $(b,debug) (adds per-fold and per-pair \
       events and progress ticks)."
    in
    Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let setup trace trace_id level jobs () =
    Obs.Trace.set_level level;
    Obs.Span.set_printer (Some (fun line -> Printf.eprintf "%s\n%!" line));
    match trace with
    | None -> ()
    | Some path ->
      Obs.Trace.start ?trace_id
        ~manifest:
          [
            ("cmd", Obs.Json.Str cmd);
            ("jobs", Obs.Json.Int jobs);
          ]
        path
  in
  (* The manifest records REPRO_JOBS, so a traced command checks it
     while the arguments parse. *)
  let check trace trace_id level =
    let* level = parsed "log-level" Obs.Trace.level_of_string level in
    Result.map (setup trace trace_id level)
      (if trace = None then Ok 0 else of_env Prelude.Pool.jobs)
  in
  Term.(term_result' (const check $ trace $ trace_id $ level))

(* The content-addressed evaluation store, shared by the expensive
   subcommands.  Opening creates the directory, so --store on a fresh
   path starts a cold cache that the same command warms; like
   [obs_term], the term is a thunk, opened only once every argument
   has parsed. *)
let store_term =
  let doc =
    "Cache interpreter profiles in the content-addressed store at \
     $(docv) (created if missing).  Profiles already in the store are \
     read back instead of re-interpreted — results are bit-identical, \
     reruns are incremental.  Inspect with the $(b,store) subcommand."
  in
  let dir =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  Term.(const (fun dir () -> Option.map (fun dir -> Store.open_ ~dir) dir)
        $ dir)

(* The side effects of the two terms above, telemetry first. *)
let start obs store =
  obs ();
  store ()

(* The optimisation objective, shared by train/crossval/query and
   registry publish.  A cmdliner converter over Objective.Spec so a bad
   spec fails argument parsing with the spec grammar in the message. *)
let objective_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Objective.Spec.of_string s)
  in
  let print ppf o = Format.pp_print_string ppf (Objective.Spec.to_string o) in
  Arg.conv (parse, print)

let objective_term =
  let doc =
    "Optimisation objective: $(b,cycles) (the default, and the \
     paper's), $(b,size) (static code size), $(b,energy) (the Cacti \
     energy model), $(b,w:)$(i,C,S,E) (a weighted blend of the three, \
     each relative to -O3) or $(b,pareto) (keep the whole \
     non-dominated front).  The default leaves every output \
     byte-identical to builds without this flag."
  in
  Arg.(value & opt objective_conv Objective.Spec.default
       & info [ "objective" ] ~docv:"SPEC" ~doc)

(* Microarchitecture options shared by run/predict: each accepts the
   values of its Uarch.Config table (cache sizes in KiB), and
   [validate] adds the cross-field check. *)
let uarch_term =
  let open Term in
  let param ?(unit = 1) name values default doc =
    let typed = Array.map (fun v -> v / unit) values in
    let expected =
      "one of "
      ^ String.concat ", " (Array.to_list (Array.map string_of_int typed))
    in
    let check v =
      Result.map (fun v -> v * unit)
        (check_int name ~expected (fun v -> Array.mem v typed) v)
    in
    term_result'
      (const check $ Arg.(value & opt int default & info [ name ] ~doc))
  in
  let mk il1_size il1_assoc il1_block dl1_size dl1_assoc dl1_block
      btb_entries btb_assoc freq_mhz issue_width =
    let u =
      {
        Uarch.Config.il1_size;
        il1_assoc;
        il1_block;
        dl1_size;
        dl1_assoc;
        dl1_block;
        btb_entries;
        btb_assoc;
        freq_mhz;
        issue_width;
      }
    in
    match Uarch.Config.validate u with
    | () -> Ok u
    | exception Invalid_argument e -> Error e
  in
  let open Uarch.Config in
  term_result'
    (const mk
    $ param "il1-kb" ~unit:1024 il1_sizes 32 "Instruction cache size in KiB."
    $ param "il1-assoc" assocs 32 "Instruction cache associativity."
    $ param "il1-block" blocks 32 "Instruction cache block size in bytes."
    $ param "dl1-kb" ~unit:1024 il1_sizes 32 "Data cache size in KiB."
    $ param "dl1-assoc" assocs 32 "Data cache associativity."
    $ param "dl1-block" blocks 32 "Data cache block size in bytes."
    $ param "btb" btb_entries_values 512 "BTB entries."
    $ param "btb-assoc" btb_assocs 1 "BTB associativity."
    $ param "freq" freqs_mhz 400 "Core frequency in MHz."
    $ param "width" issue_widths 1 "Issue width.")

let list_cmd =
  let run () =
    Array.iter
      (fun s ->
        Printf.printf "%-12s [%s]\n    %s\n" s.Workloads.Spec.name
          s.Workloads.Spec.suite s.Workloads.Spec.description)
      Workloads.Mibench.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 35 workloads") Term.(const run $ const ())

let setting_of_o3 o3 = if o3 then Some Passes.Flags.o3 else None

let dump_cmd =
  let run spec o3 =
    let program = Workloads.Mibench.program_of spec in
    let program =
      match setting_of_o3 o3 with
      | Some setting -> Passes.Driver.compile ~setting program
      | None -> program
    in
    print_string (Ir.Pretty.program program)
  in
  let o3 =
    Arg.(value & flag & info [ "O3" ] ~doc:"Dump after the -O3 pipeline.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print a workload's IR")
    Term.(const run $ prog_arg $ o3)

let run_cmd =
  let run obs store spec u =
    let store = start obs store in
    let program = Workloads.Mibench.program_of spec in
    let r = Store.profile ?store ~setting:Passes.Flags.o3 program in
    let v = Sim.Xtrem.time r u in
    let p = r.Sim.Xtrem.profile in
    Printf.printf "%s on %s (-O3)\n\n" spec.Workloads.Spec.name
      (Uarch.Config.to_string u);
    Printf.printf "dynamic instructions  %d\n" p.Ir.Profile.dyn_insts;
    Printf.printf "code size             %d bytes\n" p.Ir.Profile.code_bytes;
    Printf.printf "cycles                %.0f\n" v.Sim.Pipeline.cycles;
    Printf.printf "time                  %.3f ms\n" (v.Sim.Pipeline.seconds *. 1e3);
    Printf.printf "energy                %.3f mJ\n" (Sim.Xtrem.energy_mj r u);
    Printf.printf "checksum              %d\n\n" r.Sim.Xtrem.checksum;
    Printf.printf "performance counters (table 1):\n";
    Array.iteri
      (fun i v ->
        Printf.printf "  %-18s %.4f\n" Sim.Counters.names.(i) v)
      (Sim.Counters.to_array v.Sim.Pipeline.counters)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile, interpret and time a workload")
    Term.(const run $ obs_term "run" $ store_term $ prog_arg $ uarch_term)

let spaces_cmd =
  let run () = print_string (Experiments.Summary.spaces ()) in
  Cmd.v
    (Cmd.info "spaces" ~doc:"Show space cardinalities (fig. 3, table 2)")
    Term.(const run $ const ())

let flags_cmd =
  let run () =
    Array.iteri
      (fun i d ->
        let kind =
          match d.Passes.Flags.kind with
          | Passes.Flags.Flag { o3 } ->
            Printf.sprintf "flag   (O3: %s)" (if o3 then "on" else "off")
          | Passes.Flags.Param { values; o3_index } ->
            Printf.sprintf "param  (O3: %d; values %s)" values.(o3_index)
              (String.concat ","
                 (Array.to_list (Array.map string_of_int values)))
        in
        Printf.printf "%2d %-28s %s%s\n" i d.Passes.Flags.name kind
          (match d.Passes.Flags.gate with
          | Some g -> "  [gated by " ^ g ^ "]"
          | None -> ""))
      Passes.Flags.dims
  in
  Cmd.v
    (Cmd.info "flags" ~doc:"Show the 39 optimisation dimensions (fig. 3)")
    Term.(const run $ const ())

let exec_cmd =
  let run obs file u =
    obs ();
    let text =
      match Prelude.Envelope.read_file file with
      | Ok text -> text
      | Error e -> fail ~code:1 "%s" e
    in
    match Ir.Parse.program text with
    | exception Ir.Parse.Error (line, msg) ->
      Printf.eprintf "%s:%d: %s\n" file line msg;
      exit 1
    | program ->
      let r = Sim.Xtrem.profile_of ~setting:Passes.Flags.o3 program in
      let v = Sim.Xtrem.time r u in
      Printf.printf "checksum %d\ncycles   %.0f\ntime     %.3f ms\n"
        r.Sim.Xtrem.checksum v.Sim.Pipeline.cycles
        (v.Sim.Pipeline.seconds *. 1e3)
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Textual IR file (the dump subcommand's format).")
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Parse a textual IR file, compile at -O3 and run")
    Term.(const run $ obs_term "exec" $ file $ uarch_term)

(* Loads a .pcm artifact, with its version id, or dies with its
   diagnostic. *)
let read_artifact path =
  match Serve.Artifact.read ~path with
  | Ok loaded -> loaded
  | Error e -> fail ~code:1 "%s" e

let predict_cmd =
  let run obs store spec u scale model_path =
    let store = start obs store in
    let name = spec.Workloads.Spec.name in
    let model, space =
      match model_path with
      | Some path ->
        let _, a = read_artifact path in
        (a.Serve.Artifact.model, a.Serve.Artifact.space)
      | None ->
        Obs.Span.log
          (Printf.sprintf "training (%d configurations x %d settings)..."
             scale.Ml_model.Dataset.n_uarchs scale.Ml_model.Dataset.n_opts);
        let dataset =
          Ml_model.Dataset.generate ?store
            ~progress:(fun m -> Obs.Span.log m)
            scale
        in
        let exclude = ref (-1) in
        Array.iteri
          (fun i s -> if s.Workloads.Spec.name = name then exclude := i)
          dataset.Ml_model.Dataset.specs;
        let model =
          Obs.Span.with_ "model.train" (fun () ->
              Ml_model.Model.train
                ~include_pair:(fun ~prog ~uarch:_ -> prog <> !exclude)
                dataset)
        in
        (model, scale.Ml_model.Dataset.space)
    in
    let program = Workloads.Mibench.program_of spec in
    let o3_run = Store.profile ?store ~setting:Passes.Flags.o3 program in
    let o3 = Sim.Xtrem.time o3_run u in
    let features = Ml_model.Features.raw space o3.Sim.Pipeline.counters u in
    let predicted =
      Obs.Span.with_ "model.predict" (fun () ->
          Ml_model.Model.predict model features)
    in
    let tuned_run = Store.profile ?store ~setting:predicted program in
    let tuned = Sim.Xtrem.time tuned_run u in
    Printf.printf "predicted passes for %s on %s:\n  %s\n\n" name
      (Uarch.Config.to_string u)
      (Passes.Flags.to_string predicted);
    Printf.printf "-O3:       %.0f cycles\npredicted: %.0f cycles (%.2fx)\n"
      o3.Sim.Pipeline.cycles tuned.Sim.Pipeline.cycles
      (o3.Sim.Pipeline.cycles /. tuned.Sim.Pipeline.cycles)
  in
  let scale =
    let uarchs =
      Arg.(value & opt int 10
           & info [ "train-uarchs" ] ~doc:"Training configurations.")
    in
    let opts =
      Arg.(value & opt int 60 & info [ "train-opts" ] ~doc:"Training settings.")
    in
    let scale uarchs opts = scale_of ~uarchs ~opts () in
    Term.(term_result' (const scale $ uarchs $ opts))
  in
  let model =
    Arg.(value & opt (some file) None
         & info [ "model" ] ~docv:"FILE"
             ~doc:
               "Load a trained model from a $(b,.pcm) artifact (see the \
                $(b,train) subcommand) instead of training in-process — \
                orders of magnitude faster, bit-identical predictions.")
  in
  Cmd.v
    (Cmd.info "predict" ~doc:"Predict the best passes for a new pair")
    Term.(const run $ obs_term "predict" $ store_term $ prog_arg $ uarch_term
          $ scale $ model)

(* Artifact timestamp: SOURCE_DATE_EPOCH (the reproducible-builds
   convention) pins it, making `train` output byte-for-byte
   deterministic — which is how the store smoke test proves a warm
   rerun reproduces the cold artifact exactly.  Like REPRO_*, a value
   that is not a number is refused while the arguments parse; without
   one, the clock is read when the artifact is written. *)
let created_term =
  let created () =
    match Sys.getenv_opt "SOURCE_DATE_EPOCH" with
    | None -> Ok Unix.time
    | Some s -> (
      match float_of_string_opt s with
      | Some f -> Ok (fun () -> f)
      | None -> Error ("SOURCE_DATE_EPOCH is not a number: " ^ s))
  in
  Term.(term_result' (const created $ const ()))

(* ---- cluster plumbing -------------------------------------------------- *)

(* Shared by the cluster options and [worker]. *)
let address_check name = parsed name Net.Addr.of_string
let chaos_check = optional (parsed "chaos" Cluster.Chaos.of_string)

(* Sharding options shared by train, crossval and evidence, checked
   while the arguments parse: the harness's options, and the chaos spec
   forwarded verbatim to spawned workers.  [--workers 0] with no
   [--cluster-listen] means everything stays in-process. *)
let cluster_term =
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:
               "Shard interpretation across $(docv) worker processes \
                (spawned from this binary).  Results are byte-identical \
                at any worker count; 0 (default) disables the cluster.")
  in
  let listen =
    Arg.(value & opt (some string) None
         & info [ "cluster-listen" ] ~docv:"ADDR"
             ~doc:
               "Coordinator listen address ($(i,host:port) or a Unix \
                socket path containing '/'); implies cluster mode even \
                with $(b,--workers) 0, so external workers can connect. \
                Default: 127.0.0.1 on an ephemeral port.")
  in
  let chaos =
    Arg.(value & opt (some string) None
         & info [ "chaos" ] ~docv:"SPEC"
             ~doc:
               "Seeded fault injection for spawned workers, e.g. \
                $(i,seed=7,drop=0.05,delay=0.1,garble=0.05,kill=0.01).  \
                Results stay byte-identical; only timing and retries \
                change.")
  in
  let lease_size =
    Arg.(value & opt int 8
         & info [ "lease-size" ] ~docv:"N"
             ~doc:"Tasks handed to a worker per lease.")
  in
  let lease_timeout =
    Arg.(value & opt float 30.0
         & info [ "lease-timeout" ] ~docv:"SECONDS"
             ~doc:"Lease deadline; an expired lease is reassigned.")
  in
  let check workers listen chaos lease_size lease_timeout =
    let* workers =
      check_int "workers" ~expected:"a non-negative integer" (( <= ) 0)
        workers
    in
    let* listen = optional (address_check "cluster-listen") listen in
    let* _ = chaos_check chaos in
    let* lease_size = check_positive_int "lease-size" lease_size in
    let* lease_timeout_s = check_positive "lease-timeout" lease_timeout in
    Ok ({ Cluster.Harness.workers; listen; lease_size; lease_timeout_s }, chaos)
  in
  Term.(term_result'
          (const check $ workers $ listen $ chaos $ lease_size $ lease_timeout))

(* Launch local worker [i] as a child process of this binary, so that
   teardown (and a kill -9 from outside) reaches it directly; returns
   its reaper. *)
let spawn_worker ?store chaos ~connect i =
  (* When the parent traces, each worker traces too — a sibling file
     under the parent's trace id, so `portopt report parent.jsonl
     parent.worker-*.jsonl` stitches the whole run. *)
  let trace_args =
    match (Obs.Trace.path (), Obs.Trace.trace_id ()) with
    | Some path, Some tid ->
      [ "--trace";
        Printf.sprintf "%s.worker-%d.jsonl" (Filename.remove_extension path) i;
        "--trace-id"; tid ]
    | _ -> []
  in
  let args =
    [ "portopt"; "worker"; "--connect"; Net.Addr.to_string connect;
      "--name"; Printf.sprintf "local-%d" i ]
    @ (match store with Some s -> [ "--store"; Store.dir s ] | None -> [])
    @ (match chaos with Some s -> [ "--chaos"; s ] | None -> [])
    @ trace_args
  in
  (* Workers share stderr for progress; stdout stays the parent's
     report channel. *)
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
      Unix.stderr Unix.stderr
  in
  fun () ->
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* The prologue of the dataset commands (train, crossval, evidence):
   telemetry, the store and the [banner] line, then [f store backend]
   on the local cluster the options ask for, its evaluator offloading
   the dataset's interpretation. *)
let dataset_run ?banner ?on_result obs store (cluster, chaos) f =
  let store = start obs store in
  Option.iter Obs.Span.log banner;
  match
    Cluster.Harness.run ?store ?on_result
      ~launch:(spawn_worker ?store chaos)
      cluster
      (fun evaluate ->
        f store (Option.map (fun e -> Ml_model.Dataset.Offload e) evaluate))
  with
  | Ok () -> ()
  | Error e -> fail ~code:1 "%s" e

(* Shared by [query] and [worker]: which frame format to speak.  The
   peer latches the format of the first frame and answers in kind, so
   this only ever needs setting on the client side. *)
let wire_term =
  let wire_conv =
    Arg.conv
      ( (fun s ->
          match Net.Codec.mode_of_string s with
          | Some m -> Ok m
          | None ->
            Error
              (`Msg (Printf.sprintf "unknown wire format %S (json|binary)" s))),
        fun fmt m -> Format.pp_print_string fmt (Net.Codec.mode_to_string m) )
  in
  Arg.(value & opt wire_conv Net.Codec.Binary
       & info [ "wire" ] ~docv:"FORMAT"
           ~doc:
             "Frame format on the wire: $(i,binary) (length-prefixed, \
              the default) or $(i,json) (newline-delimited, greppable \
              with netcat).  Payloads are identical either way; the \
              server answers in whichever format the client speaks.")

let worker_cmd =
  let run obs (connect, chaos) store name wire =
    let store = start obs store in
    let name =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "%s-%d" (Unix.gethostname ()) (Unix.getpid ())
    in
    let stop = ref false in
    let handler _ = stop := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
    let cfg =
      {
        (Cluster.Worker.config ~connect ~name) with
        Cluster.Worker.store;
        chaos = Option.value chaos ~default:Cluster.Chaos.none;
        wire;
      }
    in
    let outcome = Cluster.Worker.run ~stop:(fun () -> !stop) cfg in
    Obs.Span.log
      (Printf.sprintf "worker %s: %s" name
         (Cluster.Worker.outcome_to_string outcome));
    match outcome with
    | Cluster.Worker.Drained -> ()
    | Cluster.Worker.Killed -> exit 3
    | Cluster.Worker.Lost -> exit 1
  in
  let peer =
    let connect =
      Arg.(required & opt (some string) None
           & info [ "connect" ] ~docv:"ADDR"
               ~doc:
                 "Coordinator address: $(i,host:port) or a Unix socket \
                  path (recognised by containing '/').")
    in
    let chaos =
      Arg.(value & opt (some string) None
           & info [ "chaos" ] ~docv:"SPEC"
               ~doc:
                 "Seeded fault injection on this worker's send path, e.g. \
                  $(i,seed=7,drop=0.05,garble=0.05,kill=0.01).")
    in
    let check connect chaos =
      let* connect = address_check "connect" connect in
      Result.map (fun chaos -> (connect, chaos)) (chaos_check chaos)
    in
    Term.(term_result' (const check $ connect $ chaos))
  in
  let name_arg =
    Arg.(value & opt (some string) None
         & info [ "name" ] ~docv:"NAME"
             ~doc:
               "Worker name for registration, logs and the chaos seed \
                salt (default: $(i,hostname-pid)).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Connects to a $(b,train --workers)/$(b,crossval --workers) \
         coordinator (or one listening on $(b,--cluster-listen)), \
         registers with this binary's pipeline fingerprint, and \
         evaluates leased (program, setting) profiling tasks, streaming \
         checksummed results back.  With $(b,--store), profiles are \
         read through (and written to) the content-addressed store, so \
         a warm store answers leases without interpreting.";
      `P
        "The worker retries lost connections with exponential backoff \
         and exits once the coordinator drains it (exit 0), chaos kills \
         it (exit 3), or its retries are exhausted (exit 1).  SIGINT and \
         SIGTERM trigger a graceful stop; the coordinator reassigns \
         whatever was left of the lease.";
    ]
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Serve cluster evaluation leases for a train/crossval coordinator"
       ~man)
    Term.(const run $ obs_term "worker" $ peer $ store_term $ name_arg
          $ wire_term)

(* The dataset scale of train, crossval and evidence: the REPRO_*
   defaults, overridden per option.  A bad value of either is a
   one-line command-line error, reported before any work. *)
let scale_term =
  let uarchs =
    Arg.(value & opt (some int) None
         & info [ "train-uarchs" ]
             ~doc:"Training configurations (default: \\$REPRO_UARCHS or 24).")
  in
  let opts =
    Arg.(value & opt (some int) None
         & info [ "train-opts" ]
             ~doc:"Training settings (default: \\$REPRO_OPTS or 120).")
  in
  let scale uarchs opts = scale_of ?uarchs ?opts () in
  Term.(term_result' (const scale $ uarchs $ opts))

let train_cmd =
  let run obs store out evidence_out scale objective cluster created =
    dataset_run obs store cluster
      ~banner:
        (Printf.sprintf "training (%d configurations x %d settings)..."
           scale.Ml_model.Dataset.n_uarchs scale.Ml_model.Dataset.n_opts)
    @@ fun store backend ->
    let dataset =
      Ml_model.Dataset.generate ?store ?backend ~objective
        ~progress:(fun m -> Obs.Span.log m)
        scale
    in
    let model =
      Obs.Span.with_ "model.train" (fun () -> Ml_model.Model.train dataset)
    in
    let programs_digest, settings_digest, uarchs_digest =
      Ml_model.Dataset.provenance_digests dataset
    in
    let meta =
      [
        ("seed", Obs.Json.Int scale.Ml_model.Dataset.seed);
        ("n_uarchs", Obs.Json.Int scale.Ml_model.Dataset.n_uarchs);
        ("n_opts", Obs.Json.Int scale.Ml_model.Dataset.n_opts);
        ( "programs",
          Obs.Json.Int (Array.length dataset.Ml_model.Dataset.specs) );
        ("created_unix", Obs.Json.Float (created ()));
      ]
      (* Non-default only: a --objective cycles artifact must stay
         byte-identical to one trained before the flag existed. *)
      @ (if Objective.Spec.is_default objective then []
         else
           [
             ( "objective",
               Obs.Json.Str (Objective.Spec.to_string objective) );
           ])
      @ Serve.Artifact.provenance
          ?store_dir:(Option.map Store.dir store)
          ~programs_digest ~settings_digest ~uarchs_digest ()
    in
    Serve.Artifact.save ~path:out
      { Serve.Artifact.model; space = scale.Ml_model.Dataset.space; meta };
    Printf.printf "wrote %s: %d training pairs, k=%d, beta=%g\n" out
      (Ml_model.Model.n_points model)
      (Ml_model.Model.k model) (Ml_model.Model.beta model);
    match evidence_out with
    | None -> ()
    | Some path ->
      let records = Registry.Evidence.of_dataset dataset in
      Registry.Evidence.write ~path records;
      Printf.printf "wrote %s: %d evidence records\n" path
        (List.length records)
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the model artifact (conventionally .pcm).")
  in
  let evidence_out =
    Arg.(value & opt (some string) None
         & info [ "evidence-out" ] ~docv:"FILE"
             ~doc:
               "Also write the training evidence ledger (JSONL, one \
                record per pair) — the input format of $(b,registry \
                publish), which can refit the model incrementally from \
                it.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates the training dataset (section 3.2 of the paper), fits \
         the per-pair multinomial distributions and freezes the model — \
         distributions, normalised feature rows, feature scaler, K and \
         beta — into a versioned, checksummed two-line JSON artifact.";
      `P
        "Loading the artifact ($(b,predict --model), $(b,serve --model)) \
         reproduces the in-process model bit-identically while skipping \
         dataset generation and training entirely.";
      `P
        "With $(b,--store), every interpreter profile is read through \
         the content-addressed evaluation store: a warm store retrains \
         with zero interpretations, and the artifact's meta block \
         records the store path plus digests of the training programs, \
         settings and configurations for provenance.  Set \
         $(b,SOURCE_DATE_EPOCH) to pin the artifact's timestamp and \
         make the output byte-for-byte reproducible.";
      `P
        "With $(b,--workers), interpretation is sharded across worker \
         processes under leases with retry, reassignment and circuit \
         breaking; results merge by content key, so the artifact is \
         byte-identical to a single-process run at any worker count — \
         even under $(b,--chaos) fault injection or with a worker \
         killed mid-run (see $(b,portopt worker)).";
      `P
        "With $(b,--objective), the per-pair training distributions \
         reward the requested objective — size, energy, a weighted \
         blend, or the whole Pareto front — instead of cycles alone; \
         the spec is recorded in the artifact's meta block, and the \
         server refuses queries that pin a different objective.  See \
         docs/objectives.md.";
    ]
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train the model and save a .pcm artifact" ~man)
    Term.(const run $ obs_term "train" $ store_term $ out $ evidence_out
          $ scale_term $ objective_term $ cluster_term $ created_term)

let crossval_cmd =
  let run obs store scale objective cluster =
    let progress m = Obs.Span.log m in
    dataset_run obs store cluster @@ fun store backend ->
    let dataset =
      Ml_model.Dataset.generate ?store ?backend ~objective ~progress scale
    in
    let outcomes = Ml_model.Crossval.run ?backend ~progress dataset in
    let mean f = Prelude.Stats.mean (Array.map f outcomes) in
    Printf.printf "pairs               %d (%d programs x %d configurations)\n"
      (Array.length outcomes)
      (Ml_model.Dataset.n_programs dataset)
      (Ml_model.Dataset.n_uarchs dataset);
    Printf.printf "mean model speedup  %.4fx over -O3\n"
      (mean Ml_model.Crossval.speedup);
    Printf.printf "mean best sampled   %.4fx over -O3\n"
      (mean Ml_model.Crossval.best_speedup);
    Printf.printf "fraction of best    %.1f%%\n"
      (100. *. Ml_model.Crossval.fraction_of_best outcomes);
    (* Under --objective pareto each pair kept its whole non-dominated
       front; summarise the fronts so a sweep can see how much genuine
       trade-off space the sampled settings expose. *)
    let fronts =
      Array.to_list dataset.Ml_model.Dataset.pairs
      |> List.filter_map (fun p -> p.Ml_model.Dataset.front)
    in
    if fronts <> [] then begin
      let sizes =
        List.map (fun f -> Array.length (Objective.Front.members f)) fronts
      in
      let n = List.length sizes in
      let total = List.fold_left ( + ) 0 sizes in
      let maximum = List.fold_left max 0 sizes in
      let non_trivial = List.length (List.filter (fun s -> s >= 3) sizes) in
      Printf.printf "pareto fronts       %d (mean size %.1f, max %d)\n" n
        (float_of_int total /. float_of_int n)
        maximum;
      Printf.printf "non-trivial fronts  %d pairs with >= 3 settings\n"
        non_trivial
    end
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Leave-one-out cross-validation (section 5.1.1 of the paper): \
         for every program/configuration pair, trains on the pairs \
         involving neither, predicts, and times the prediction on the \
         held-out pair.  Prints the mean model and iterative-compilation \
         speedups and the fraction-of-best metric.";
      `P
        "With $(b,--store), interpreter profiles are read through the \
         content-addressed evaluation store, making repeated sweeps \
         (e.g. at different scales) incremental.";
      `P
        "With $(b,--workers), interpretation (dataset profiles and the \
         folds' predicted settings) is sharded across worker processes; \
         outcomes are identical to the in-process run.";
      `P
        "With $(b,--objective), the dataset's per-pair good sets reward \
         the requested objective (size, energy, a weighted blend) \
         instead of cycles; $(b,--objective pareto) keeps each pair's \
         whole non-dominated front and prints a front-size summary.  \
         See docs/objectives.md.";
    ]
  in
  Cmd.v
    (Cmd.info "crossval" ~doc:"Leave-one-out cross-validation summary" ~man)
    Term.(const run $ obs_term "crossval" $ store_term $ scale_term
          $ objective_term $ cluster_term)

(* ---- store maintenance ------------------------------------------------ *)

(* Store maintenance and the registry's readers open an existing
   directory: a typo'd path should diagnose, not silently create an
   empty store or registry and report zero entries. *)
let open_existing what open_ dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    fail ~code:1 "no %s at %s" what dir;
  open_ ~dir

let store_dir_arg =
  Arg.(value & opt string Store.default_dir
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Store directory (default .portopt-store); must exist.")

let print_stats (s : Store.stats) =
  Printf.printf "entries  %d\nbytes    %d (%.1f KiB)\n" s.Store.entries
    s.Store.bytes
    (float_of_int s.Store.bytes /. 1024.)

let store_stats_cmd =
  let run dir =
    let store = open_existing "store" Store.open_ dir in
    Printf.printf "store    %s\n" (Store.dir store);
    print_stats (Store.stats store)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show a store's entry count and size")
    Term.(const run $ store_dir_arg)

let store_gc_cmd =
  let run dir max_mb dry_run =
    let store = open_existing "store" Store.open_ dir in
    let before = Store.stats store in
    let max_bytes = int_of_float (max_mb *. 1024. *. 1024.) in
    let evicted, stats = Store.gc ~dry_run store ~max_bytes in
    if dry_run then begin
      Printf.printf "would evict  %d records (%d bytes, %.1f KiB)\n" evicted
        (before.Store.bytes - stats.Store.bytes)
        (float_of_int (before.Store.bytes - stats.Store.bytes) /. 1024.);
      Printf.printf "would keep   %d records (%d bytes)\n" stats.Store.entries
        stats.Store.bytes
    end
    else begin
      Printf.printf "evicted  %d\n" evicted;
      print_stats stats
    end
  in
  let max_mb =
    Arg.(value & opt float 64.
         & info [ "max-mb" ] ~docv:"MB"
             ~doc:
               "Evict least-recently-used records until the store fits \
                $(docv) mebibytes.")
  in
  let dry_run =
    Arg.(value & flag
         & info [ "dry-run" ]
             ~doc:
               "Report what would be evicted (record count and bytes) \
                without deleting anything — not even orphaned temp files.")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Evict least-recently-used records down to a size bound")
    Term.(const run $ store_dir_arg $ max_mb $ dry_run)

let store_verify_cmd =
  let run dir =
    let store = open_existing "store" Store.open_ dir in
    let report = Store.verify store in
    Printf.printf "checked  %d\nerrors   %d\n" report.Store.checked
      (List.length report.Store.errors);
    List.iter
      (fun (_, reason) -> Printf.printf "  %s\n" reason)
      report.Store.errors;
    if report.Store.errors <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Strict-load every record and report corruption (truncation, \
          checksum or key mismatches, foreign versions)")
    Term.(const run $ store_dir_arg)

let store_cmd =
  let man =
    [
      `S Manpage.s_description;
      `P
        "The evaluation store ($(b,--store) on run/predict/train/\
         crossval) is a content-addressed on-disk cache of interpreter \
         profiles, keyed by digests of the program IR, the canonical \
         optimisation setting and the pass-pipeline fingerprint.  \
         Records are versioned, checksummed and written atomically; a \
         crashed writer never corrupts a record, and $(b,gc) only ever \
         deletes whole records, oldest-access first.";
    ]
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and maintain an evaluation store" ~man)
    [ store_stats_cmd; store_gc_cmd; store_verify_cmd ]

(* Server/client addressing shared by serve and query. *)
let address_term =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket path (overrides --host/--port).")
  in
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"TCP host to bind/connect.")
  in
  let port =
    Arg.(value & opt int 7979
         & info [ "port" ] ~docv:"PORT"
             ~doc:"TCP port; 0 lets the kernel pick one (serve prints it).")
  in
  let mk socket host port =
    match socket with
    | Some path -> Net.Addr.Unix_path path
    | None -> Net.Addr.Tcp (host, port)
  in
  Term.(const mk $ socket $ host $ port)

(* "--ab candidate=0.1": channel name and split fraction. *)
let parse_ab spec =
  let expected =
    "CHANNEL=FRACTION with FRACTION in [0,1], e.g. candidate=0.1"
  in
  match String.index_opt spec '=' with
  | None -> invalid "ab" spec ~expected
  | Some i -> (
    let channel = String.sub spec 0 i in
    let frac = String.sub spec (i + 1) (String.length spec - i - 1) in
    match float_of_string_opt frac with
    | Some f when f >= 0.0 && f <= 1.0 && channel <> "" -> Ok (channel, f)
    | _ -> invalid "ab" spec ~expected)

let serve_cmd =
  let run obs (served, ab, watch) channel address jobs queue cache admin =
    obs ();
    let split, candidate_channel =
      match ab with None -> (0.0, None) | Some (ch, f) -> (f, Some ch)
    in
    let artifact, candidate, source =
      match served with
      | `Model path -> (read_artifact path, None, None)
      | `Registry dir -> (
        let reg = open_existing "registry" Registry.open_ dir in
        let source =
          Registry.source reg ~stable_channel:channel ~candidate_channel
        in
        match source () with
        | Error e -> fail ~code:1 "registry %s: %s" dir e
        | Ok Serve.Server.Unchanged -> assert false
        | Ok (Serve.Server.Swap { stable; candidate }) ->
          (stable, candidate, Some source))
    in
    let config =
      {
        Serve.Server.address;
        jobs;
        queue;
        cache_capacity = cache;
        admin;
        split;
        source;
        watch;
      }
    in
    let server =
      try Serve.Server.start ?candidate ~artifact config
      with Unix.Unix_error (e, _, _) ->
        fail ~code:1 "cannot listen on %s: %s" (Net.Addr.to_string address)
          (Unix.error_message e)
    in
    let on_signal _ = Serve.Server.stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Printf.printf
      "portopt serve: listening on %s (%d training pairs, jobs %d, queue \
       %d, cache %d%s%s%s)\n\
       %!"
      (Net.Addr.to_string (Serve.Server.address server))
      (Ml_model.Model.n_points (snd artifact).Serve.Artifact.model)
      jobs queue cache
      (if admin then ", admin" else "")
      (match served with
      | `Registry dir -> Printf.sprintf ", registry %s channel %s" dir channel
      | `Model _ -> "")
      (match candidate_channel with
      | Some ch -> Printf.sprintf ", A/B %s=%g" ch split
      | None -> "");
    Serve.Server.wait server;
    Printf.printf "portopt serve: drained, bye\n%!"
  in
  let model =
    Arg.(value & opt (some file) None
         & info [ "model" ] ~docv:"FILE"
             ~doc:"Model artifact to serve (the train subcommand's output).")
  in
  let registry =
    Arg.(value & opt (some string) None
         & info [ "registry" ] ~docv:"DIR"
             ~doc:
               "Serve from a model registry instead of a fixed artifact: \
                resolve $(b,--channel) at startup, honour the \
                $(b,reload) op and (with $(b,--watch)) follow channel \
                pointer moves live.")
  in
  let channel =
    Arg.(value & opt string "stable"
         & info [ "channel" ] ~docv:"NAME"
             ~doc:"Registry channel served as the stable arm.")
  in
  let ab =
    Arg.(value & opt (some string) None
         & info [ "ab" ] ~docv:"CHANNEL=FRACTION"
             ~doc:
               "A/B experiment: route $(i,FRACTION) of queries to the \
                model the $(i,CHANNEL) pointer names (e.g. \
                $(b,candidate=0.1)).  Assignment is a deterministic \
                hash of the query, responses are tagged with their arm \
                and model version, and $(b,serve.ab.*) metrics time \
                each arm for $(b,portopt promote).  Needs \
                $(b,--registry).")
  in
  let watch =
    Arg.(value & opt (some float) None
         & info [ "watch" ] ~docv:"SECONDS"
             ~doc:
               "Poll the registry every $(docv) seconds and hot-swap \
                when a channel pointer moved — a $(b,registry publish) \
                or $(b,promote) goes live without restarting or even \
                sending $(b,reload).  Needs $(b,--registry).")
  in
  let jobs =
    Arg.(value & opt int 2
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Worker domains computing predictions in parallel.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:
               "Admitted requests tolerated beyond --jobs before the \
                server sheds load with a 429 error.")
  in
  let cache =
    Arg.(value & opt int 512
         & info [ "cache" ] ~docv:"N"
             ~doc:"LRU prediction-cache capacity; 0 disables the cache.")
  in
  let admin =
    Arg.(value & flag
         & info [ "admin" ]
             ~doc:"Honour the shutdown and sleep ops (otherwise 403).")
  in
  (* Where the served model comes from, checked while the arguments
     parse: a fixed artifact, or a registry with an optional A/B split
     and watch period. *)
  let served =
    let check model registry ab watch =
      let* ab = optional parse_ab ab in
      match (model, registry) with
      | Some _, Some _ -> Error "choose one of --model and --registry"
      | None, None -> Error "serve needs --model or --registry"
      | Some _, None when ab <> None || watch <> None ->
        Error "--ab/--watch need --registry"
      | Some path, None -> Ok (`Model path, ab, watch)
      | None, Some dir -> Ok (`Registry dir, ab, watch)
    in
    Term.(term_result' (const check $ model $ registry $ ab $ watch))
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads a trained model artifact and answers newline-delimited \
         JSON requests ($(b,{\"op\":\"predict\",\"counters\":[...],\
         \"uarch\":{...}})) over a TCP or Unix-domain socket.  Repeated \
         queries hit an LRU cache keyed on the quantised feature vector; \
         beyond $(b,--jobs) + $(b,--queue) concurrently admitted \
         requests the server answers 429 instead of queueing unboundedly.";
      `P
        "The K nearest training pairs are found by one exact search over \
         the training rows grouped by their microarchitecture \
         descriptors, built when the model loads; its answers are \
         bit-identical to a full sort of every distance.  A \
         $(b,predict_batch) request carries a vector of queries, occupies \
         one admission slot and is computed as one worker-pool task.";
      `P
        "With $(b,--registry), the served model comes from a model \
         registry's channel pointers instead of a fixed file: the \
         $(b,reload) op (and $(b,--watch)'s polling) re-resolves the \
         pointers and atomically hot-swaps the active model between \
         requests — in-flight queries complete against the model they \
         started with, so every response is bit-identical to exactly \
         one published version.  $(b,--ab CHANNEL=FRACTION) additionally \
         routes a deterministic hash-based fraction of queries to a \
         candidate model for comparison (see $(b,portopt promote)).";
      `P
        "SIGINT/SIGTERM (or an admin $(b,shutdown) op) start a graceful \
         drain: in-flight requests complete and are answered before the \
         process exits.  $(b,{\"op\":\"health\"}) reports uptime, \
         request/shed counts, cache statistics, queue depth and the \
         active model's version, checksum and provenance digests.  See \
         docs/serving.md for the full protocol.";
    ]
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve predictions from a model artifact or registry" ~man)
    Term.(const run $ obs_term "serve" $ served $ channel $ address_term
          $ jobs $ queue $ cache $ admin)

(* Shared by query/metrics/top/promote: connect or die with a friendly
   message. *)
let connect_or_exit ?wire address =
  try Serve.Client.connect ?wire address
  with Unix.Unix_error (e, _, _) ->
    fail ~code:1 "cannot connect to %s: %s" (Net.Addr.to_string address)
      (Unix.error_message e)

let query_cmd =
  let print_prediction name u (p : Serve.Protocol.prediction) =
    Printf.printf "predicted passes for %s on %s:\n  %s\n" name
      (Uarch.Config.to_string u) p.Serve.Protocol.flags;
    Printf.printf "served in %.2f ms (%s, %d neighbours%s)\n"
      p.Serve.Protocol.latency_ms
      (if p.Serve.Protocol.cached then "cache hit" else "computed")
      (Array.length p.Serve.Protocol.neighbours)
      (match (p.Serve.Protocol.model, p.Serve.Protocol.arm) with
      | Some m, Some a -> Printf.sprintf ", model %s arm %s" m a
      | Some m, None -> Printf.sprintf ", model %s" m
      | None, _ -> "")
  in
  let counters_of spec u =
    let program = Workloads.Mibench.program_of spec in
    let r = Sim.Xtrem.profile_of ~setting:Passes.Flags.o3 program in
    let v = Sim.Xtrem.time r u in
    v.Sim.Pipeline.counters
  in
  let server_error (code, msg) =
    fail ~code:(if code = 429 then 3 else 1) "server error %d: %s" code msg
  in
  let run obs request u objective address wire =
    obs ();
    let client = connect_or_exit ~wire address in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close client)
      (fun () ->
        let raw r =
          match r with
          | Ok j -> print_endline (Obs.Json.to_string j)
          | Error (code, msg) -> fail ~code:1 "server error %d: %s" code msg
        in
        match request with
        | `Health -> raw (Serve.Client.health client)
        | `Shutdown -> raw (Serve.Client.shutdown client)
        | `Reload -> raw (Serve.Client.reload client)
        | `Sleep s -> raw (Serve.Client.sleep client s)
        | `Predict spec -> (
          match
            Serve.Client.predict ?objective client
              ~counters:(counters_of spec u) ~uarch:u
          with
          | Error e -> server_error e
          | Ok p -> print_prediction spec.Workloads.Spec.name u p)
        | `Batch specs -> (
          let specs = Array.of_list specs in
          let queries = Array.map (fun spec -> (counters_of spec u, u)) specs in
          match Serve.Client.predict_batch ?objective client queries with
          | Error e -> server_error e
          | Ok results ->
            Array.iteri
              (fun i p -> print_prediction specs.(i).Workloads.Spec.name u p)
              results;
            Printf.printf "batch of %d served in one request\n"
              (Array.length results)))
  in
  let progs =
    let specs names =
      List.fold_right
        (fun name acc ->
          Result.bind (program_of_name name) (fun spec ->
              Result.map (List.cons spec) acc))
        names (Ok [])
    in
    Term.term_result'
      Term.(const specs
            $ Arg.(value & pos_all string []
                   & info [] ~docv:"PROGRAM"
                       ~doc:
                         "Benchmark(s) to profile locally and query for; \
                          several need $(b,--batch)."))
  in
  let batch =
    Arg.(value & flag
         & info [ "batch" ]
             ~doc:
               "Send all PROGRAMs as one $(b,predict_batch) request: one \
                admission slot, one worker-pool task, one response line, \
                answers bit-identical to querying one by one.")
  in
  let health =
    Arg.(value & flag
         & info [ "health" ] ~doc:"Print the server's health document.")
  in
  let shutdown =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Ask the server to drain and exit (needs --admin there).")
  in
  let reload =
    Arg.(value & flag
         & info [ "reload" ]
             ~doc:
               "Ask the server to re-resolve its model source and \
                hot-swap (needs --admin and serve --registry there); \
                prints the active versions and whether anything \
                changed.")
  in
  let sleep_s =
    Arg.(value & opt (some float) None
         & info [ "sleep" ] ~docv:"SECONDS"
             ~doc:
               "Hold a server worker for the duration (needs --admin \
                there); test aid for exercising load shedding.")
  in
  let objective =
    Arg.(value & opt (some objective_conv) None
         & info [ "objective" ] ~docv:"SPEC"
             ~doc:
               "Require the answering model to have been trained for \
                this objective ($(b,cycles), $(b,size), $(b,energy), \
                $(b,w:)$(i,C,S,E) or $(b,pareto)); the server answers \
                with a 400 on a mismatch.  Omitted, any model answers.")
  in
  (* The one request to send, checked while the arguments parse. *)
  let request =
    let check progs batch health shutdown reload sleep_s =
      if health then Ok `Health
      else if shutdown then Ok `Shutdown
      else if reload then Ok `Reload
      else
        match (sleep_s, progs, batch) with
        | Some s, _, _ -> Ok (`Sleep s)
        | None, [], _ ->
          Error
            "query needs a PROGRAM (or --health, --shutdown, --reload, \
             --sleep)"
        | None, _ :: _ :: _, false -> Error "multiple programs need --batch"
        | None, [ spec ], false -> Ok (`Predict spec)
        | None, specs, true -> Ok (`Batch specs)
    in
    Term.(term_result'
            (const check $ progs $ batch $ health $ shutdown $ reload
            $ sleep_s))
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Profiles the named workload locally at -O3 on the given \
         microarchitecture to obtain its performance counters, sends \
         them to a running $(b,portopt serve) instance and prints the \
         predicted optimisation setting.  Exit status 3 means the \
         server shed the request (429).";
      `P
        "With $(b,--batch), several workloads are profiled locally and \
         sent as a single $(b,predict_batch) request; the server \
         computes the cache misses as one worker-pool task and answers \
         in program order.  Predictions are bit-identical to querying \
         each program separately.";
    ]
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Query a running prediction server" ~man)
    Term.(const run $ obs_term "query" $ request $ uarch_term $ objective
          $ address_term $ wire_term)

let report_cmd =
  let run files =
    let load file =
      match Obs.Trace.validate_file file with
      | Error e ->
        Printf.eprintf "%s: invalid trace: %s\n" file e;
        exit 1
      | Ok events -> (file, events)
    in
    match Obs.Stitch.stitch (List.map load files) with
    | Ok t -> print_string (Obs.Stitch.render t)
    | Error e -> fail ~code:1 "%s" e
  in
  let files =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"TRACE"
             ~doc:
               "JSONL trace(s) produced by --trace (or bench --trace), one \
                per process.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Validate each file against the event schema, then stitch them \
         into one causal tree: one file per process, e.g. a traced \
         $(b,train --workers 2) run's coordinator trace plus its \
         $(i,*.worker-N.jsonl) siblings.  Spans are keyed by (process, \
         id); $(i,remote) references (propagated through serve requests \
         and cluster leases) attach a process's entry spans under their \
         cross-process parent.  Two files of one process are refused.";
      `P
        "The report lists each process with its argv and $(b,REPRO_*) \
         env, any orphan spans (parents that resolve nowhere — zero on \
         a healthy run), the bounded causal tree, the critical path, \
         self time per process, spans by name (calls, total, self and \
         max seconds; self time subtracts children in the same process \
         only), leaf events by name, the nonzero counters and gauges \
         and merged histogram quantiles.";
      `P
        "Version-1 traces (written before trace ids) still load: the \
         file name stands in as the process identity.";
    ]
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Validate JSONL run traces and stitch them into one report: \
          causal tree and time by span name"
       ~man)
    Term.(const run $ files)

let metrics_cmd =
  let run address cluster format =
    let snapshot =
      match cluster with
      | Some addr -> (
        match Cluster.Wire.query_metrics addr with
        | Ok s -> s
        | Error e -> fail ~code:1 "metrics query failed: %s" e)
      | None -> (
        let client = connect_or_exit address in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close client)
          (fun () ->
            match Serve.Client.metrics client with
            | Ok s -> s
            | Error (code, msg) -> fail ~code:1 "server error %d: %s" code msg))
    in
    match format with
    | `Json -> print_endline (Obs.Json.to_string snapshot)
    | `Prom -> print_string (Obs.Prom.render snapshot)
  in
  let cluster =
    Term.(term_result'
            (const (optional (address_check "cluster"))
            $ Arg.(value & opt (some string) None
                   & info [ "cluster" ] ~docv:"ADDR"
                       ~doc:
                         "Query a cluster coordinator ($(i,host:port) or a \
                          socket path) instead of a prediction server; the \
                          poller never registers as a worker.")))
  in
  let format =
    Arg.(value & opt (enum [ ("json", `Json); ("prom", `Prom) ]) `Json
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:
               "Output format: $(b,json) (the raw snapshot object) or \
                $(b,prom) (Prometheus text exposition v0.0.4).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Fetches the live metrics snapshot of a running process — a \
         $(b,portopt serve) instance (the $(b,metrics) op) or a \
         $(b,train --workers)/$(b,crossval --workers) coordinator \
         ($(b,--cluster), answered before registration so the poller \
         never becomes a worker) — and prints it.";
      `P
        "$(b,--format json) prints the raw snapshot: monotonic counters, \
         gauges, and log-bucketed latency histograms with p50/p90/p99 \
         and the sparse bucket array.  $(b,--format prom) renders the \
         same snapshot as a Prometheus scrape body: names mangled to the \
         metric alphabet, histograms as a cumulative \
         $(i,_bucket{le=...}) ladder plus $(i,_sum)/$(i,_count), and the \
         quantiles as a sibling $(i,_quantile) gauge family.  See \
         docs/observability.md for the exact mapping.";
    ]
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Fetch a running process's metrics snapshot (JSON or Prometheus)"
       ~man)
    Term.(const run $ address_term $ cluster $ format)

let top_cmd =
  let run address interval count no_clear =
    let client = connect_or_exit address in
    let clear = (not no_clear) && Unix.isatty Unix.stdout in
    let address = Net.Addr.to_string address in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close client)
      (fun () ->
        let rec loop prev i =
          match Serve.Top.fetch client with
          | Error (code, msg) -> fail ~code:1 "server error %d: %s" code msg
          | Ok cur ->
            if clear then print_string "\027[2J\027[H";
            print_string (Serve.Top.render ?prev cur ~address);
            flush stdout;
            if count = 0 || i + 1 < count then begin
              Thread.delay interval;
              loop (Some cur) (i + 1)
            end
        in
        loop None 0)
  in
  let interval =
    Term.(term_result'
            (const (check_positive "interval")
            $ Arg.(value & opt float 2.0
                   & info [ "interval" ] ~docv:"SECONDS"
                       ~doc:"Seconds between polls.")))
  in
  let count =
    Arg.(value & opt int 0
         & info [ "count" ] ~docv:"N"
             ~doc:
               "Stop after $(docv) polls (0 = run until interrupted); \
                handy for scripts and CI.")
  in
  let no_clear =
    Arg.(value & flag
         & info [ "no-clear" ]
             ~doc:
               "Append panels instead of redrawing in place (the \
                default when stdout is not a terminal).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Polls a running $(b,portopt serve) instance — one $(b,health) \
         plus one $(b,metrics) round trip per tick — and renders a \
         small dashboard: request/shed/error rates over the polling \
         window, cache hit rate, queue depth and in-flight count, and \
         request latency quantiles (p50/p90/p99/max) both over the \
         server's lifetime and over just the window.";
      `P
        "Window quantiles subtract the previous poll's histogram \
         buckets from the latest — exact bucket arithmetic on the \
         mergeable log-bucketed histograms, no sampling.  On a \
         terminal each tick redraws in place; use $(b,--no-clear) (or \
         redirect stdout) to append panels instead, and $(b,--count) \
         to stop after a fixed number of polls.";
    ]
  in
  Cmd.v
    (Cmd.info "top" ~doc:"Live dashboard over a running prediction server" ~man)
    Term.(const run $ address_term $ interval $ count $ no_clear)

(* ---- model registry --------------------------------------------------- *)

let registry_dir_arg =
  Arg.(value & opt string Registry.default_dir
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Registry directory (created by publish if missing).")

let evidence_cmd =
  let run obs store out scale cluster =
    (* Stream per-result debug lines as cluster workers (or the store
       pre-check) install profiles — the evidence accumulates live. *)
    let on_result ~task ~key:_ ~run:_ =
      Obs.Span.log ~level:Obs.Trace.Debug
        (Printf.sprintf "evidence: profiled %s" task.Cluster.Task.program)
    in
    dataset_run obs store cluster ~on_result
      ~banner:
        (Printf.sprintf
           "collecting evidence (%d configurations x %d settings)..."
           scale.Ml_model.Dataset.n_uarchs scale.Ml_model.Dataset.n_opts)
    @@ fun store backend ->
    let dataset =
      Ml_model.Dataset.generate ?store ?backend
        ~progress:(fun m -> Obs.Span.log m)
        scale
    in
    let records = Registry.Evidence.of_dataset dataset in
    Registry.Evidence.write ~path:out records;
    Printf.printf
      "wrote %s: %d evidence records (%d programs x %d configurations, \
       digest %s)\n"
      out (List.length records)
      (Ml_model.Dataset.n_programs dataset)
      (Ml_model.Dataset.n_uarchs dataset)
      (Registry.Evidence.digest records)
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the evidence ledger (JSONL).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates the training dataset exactly as $(b,train) would — \
         same sampling, pricing and good-set selection, so the same \
         $(b,REPRO_*) environment yields the same records — but writes \
         the $(i,evidence ledger) instead of a fitted model: one JSON \
         line per (program, configuration) pair carrying its content \
         digests, raw feature vector and good settings.";
      `P
        "$(b,registry publish) turns a ledger into a registry version; \
         with $(b,--parent) it folds the ledger into an existing \
         version's sufficient statistics incrementally.  Distinct \
         $(b,REPRO_SEED) values produce distinct ledgers over the same \
         programs — fresh evidence for refitting.";
      `P
        "With $(b,--store)/$(b,--workers), profiles are read through \
         the evaluation store or sharded across cluster workers; \
         records stream into the ledger as results install, and the \
         ledger is byte-identical at any worker count.";
    ]
  in
  Cmd.v
    (Cmd.info "evidence"
       ~doc:"Collect a training-evidence ledger for the model registry" ~man)
    Term.(const run $ obs_term "evidence" $ store_term $ out $ scale_term
          $ cluster_term)

let registry_publish_cmd =
  let run dir evidence parent channel k beta objective created =
    let reg = Registry.open_ ~dir in
    let records =
      match Registry.Evidence.read ~path:evidence with
      | Ok r -> r
      | Error e -> fail ~code:1 "%s" e
    in
    match
      Registry.publish ?k ?beta ?parent ?channel ~objective
        ~created:(created ()) reg records
    with
    | Error e -> fail ~code:1 "%s" e
    | Ok l ->
      Printf.printf "published %s: %d pairs, %d records%s\n"
        l.Registry.l_id l.Registry.l_pairs l.Registry.l_records
        (match l.Registry.l_parent with
        | Some p -> Printf.sprintf ", refit from %s" p
        | None -> ", cold fit");
      List.iter
        (fun (name, id) ->
          if id = l.Registry.l_id then
            Printf.printf "channel %s -> %s\n" name id)
        (Registry.channels reg)
  in
  let evidence =
    Arg.(required & opt (some file) None
         & info [ "evidence" ] ~docv:"FILE"
             ~doc:
               "Evidence ledger (JSONL from $(b,portopt evidence) or \
                $(b,train --evidence-out)).")
  in
  let parent =
    Arg.(value & opt (some string) None
         & info [ "parent" ] ~docv:"REF"
             ~doc:
               "Refit incrementally from this version (id, unambiguous \
                prefix, or channel name): its ledger is folded first, \
                the new records on top — bit-identical to a cold fit \
                on the union, so both derivations publish the same \
                version id.")
  in
  let channel =
    Arg.(value & opt (some string) None
         & info [ "channel" ] ~docv:"NAME"
             ~doc:
               "Also point this channel at the published version \
                ($(b,latest) always moves).")
  in
  let k =
    Arg.(value & opt (some int) None
         & info [ "k" ]
             ~doc:
               (Printf.sprintf "Neighbour count (default: %d)."
                  Ml_model.Model.default_k))
  in
  let beta =
    Arg.(value & opt (some float) None
         & info [ "beta" ]
             ~doc:
               (Printf.sprintf "Softmax sharpness (default: %g)."
                  Ml_model.Model.default_beta))
  in
  let objective =
    Arg.(value & opt objective_conv Objective.Spec.default
         & info [ "objective" ] ~docv:"SPEC"
             ~doc:
               "Declare the objective the evidence was gathered under \
                ($(b,cycles), $(b,size), $(b,energy), $(b,w:)$(i,C,S,E) \
                or $(b,pareto)); recorded in the version's lineage and \
                artifact meta.  Non-default specs change the version id \
                — the same evidence under a different objective is a \
                different version.")
  in
  Cmd.v
    (Cmd.info "publish"
       ~doc:"Train a version from an evidence ledger and store it")
    Term.(const run $ registry_dir_arg $ evidence $ parent $ channel $ k
          $ beta $ objective $ created_term)

let registry_list_cmd =
  let run dir =
    let reg = open_existing "registry" Registry.open_ dir in
    match Registry.versions reg with
    | Error e -> fail ~code:1 "%s" e
    | Ok versions ->
      let channels = Registry.channels reg in
      let names_of id =
        match
          List.filter_map
            (fun (name, cid) -> if cid = id then Some name else None)
            channels
        with
        | [] -> ""
        | names -> "  <- " ^ String.concat "," names
      in
      if versions = [] then print_endline "(empty registry)"
      else
        List.iter
          (fun l ->
            Printf.printf "%s  pairs %-4d records %-4d k=%d beta=%g %s%s%s%s\n"
              l.Registry.l_id l.Registry.l_pairs l.Registry.l_records
              l.Registry.l_k l.Registry.l_beta l.Registry.l_space
              (if
                 l.Registry.l_objective
                 = Objective.Spec.to_string Objective.Spec.default
               then ""
               else "  objective " ^ l.Registry.l_objective)
              (match l.Registry.l_parent with
              | Some p -> "  parent " ^ p
              | None -> "")
              (names_of l.Registry.l_id))
          versions
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List versions, lineage and channel pointers")
    Term.(const run $ registry_dir_arg)

let registry_resolve_cmd =
  let run dir ref_ =
    let reg = open_existing "registry" Registry.open_ dir in
    match Registry.resolve_id reg ref_ with
    | Error e -> fail ~code:1 "%s" e
    | Ok id -> Printf.printf "%s %s\n" id (Registry.object_path reg id)
  in
  let ref_ =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"REF"
             ~doc:"Channel name, version id, or unambiguous id prefix.")
  in
  Cmd.v
    (Cmd.info "resolve"
       ~doc:"Resolve a channel or id prefix to a version id and path")
    Term.(const run $ registry_dir_arg $ ref_)

let registry_gc_cmd =
  let run dir dry_run =
    let reg = open_existing "registry" Registry.open_ dir in
    match Registry.gc ~dry_run reg with
    | Error e -> fail ~code:1 "%s" e
    | Ok (deleted, kept) ->
      List.iter
        (fun id ->
          Printf.printf "%s %s\n"
            (if dry_run then "would delete" else "deleted")
            id)
        deleted;
      Printf.printf "%s %d, kept %d\n"
        (if dry_run then "would delete" else "deleted")
        (List.length deleted) kept
  in
  let dry_run =
    Arg.(value & flag
         & info [ "dry-run" ]
             ~doc:"Report unreachable versions without deleting.")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Delete versions unreachable from every channel through \
          lineage chains")
    Term.(const run $ registry_dir_arg $ dry_run)

let registry_cmd =
  let man =
    [
      `S Manpage.s_description;
      `P
        "The model registry versions $(b,.pcm) artifacts in a \
         content-addressed directory: a version's id is the FNV-1a 64 \
         digest of its payload, each version carries a lineage record \
         (parent version, trainer parameters, evidence and provenance \
         digests, creation time — pin it with \
         $(b,SOURCE_DATE_EPOCH)) and the exact evidence ledger that \
         trained it, and named channel pointers ($(b,latest), \
         $(b,stable), $(b,candidate), ...) move atomically.";
      `P
        "$(b,publish --parent) refits incrementally: the parent's \
         per-pair multinomial counts are extended with the fresh \
         records instead of retraining from scratch, and the result is \
         bit-identical to a cold retrain on the union ledger — the two \
         derivations content-address to the $(i,same) version.  \
         $(b,portopt serve --registry) serves channels live; \
         $(b,portopt promote) flips $(b,stable) after an A/B \
         comparison.";
    ]
  in
  Cmd.group
    (Cmd.info "registry" ~doc:"Versioned model registry with lineage" ~man)
    [ registry_publish_cmd; registry_list_cmd; registry_resolve_cmd;
      registry_gc_cmd ]

let promote_cmd =
  let run obs dir address min_requests max_regression force =
    obs ();
    let reg = open_existing "registry" Registry.open_ dir in
    let client = connect_or_exit address in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close client)
      (fun () ->
        let p =
          match Serve.Top.fetch client with
          | Error (code, msg) -> fail ~code:1 "server error %d: %s" code msg
          | Ok sample -> (
            match
              Serve.Top.promotion ~min_requests ~max_regression ~force sample
            with
            | Ok p -> p
            | Error e -> fail ~code:1 "%s" e)
        in
        let show name (a : Serve.Top.arm) =
          Printf.printf "%-9s %s  requests %-6d %s\n" name a.version
            a.requests
            (match a.p99 with
            | Some v -> Printf.sprintf "p99 %8.3f ms" (v *. 1e3)
            | None -> "p99 (no samples)")
        in
        show "stable" p.stable;
        show "candidate" p.candidate;
        match p.verdict with
        | Error why ->
          Printf.printf "not promoted: %s\n" why;
          exit 3
        | Ok () -> (
          let id = p.candidate.version in
          match Registry.set_channel reg ~name:"stable" ~id with
          | Error e -> fail ~code:1 "%s" e
          | Ok () ->
            Printf.printf "promoted: stable -> %s\n" id;
            (* Nudge the server; with --watch it would also pick the
               pointer move up on its own.  Failure to reload is not a
               promotion failure. *)
            (match Serve.Client.reload client with
            | Ok _ -> ()
            | Error (code, msg) ->
              Printf.eprintf
                "portopt: promoted, but reload failed (%d: %s) — the \
                 server will follow on its next --watch poll\n"
                code msg)))
  in
  let min_requests =
    Arg.(value & opt int 20
         & info [ "min-requests" ] ~docv:"N"
             ~doc:
               "Refuse to promote before the candidate arm has served \
                $(docv) requests.")
  in
  let max_regression =
    Arg.(value & opt float 0.10
         & info [ "max-regression" ] ~docv:"FRACTION"
             ~doc:
               "Refuse to promote when the candidate's p99 latency \
                exceeds the stable arm's by more than this fraction.")
  in
  let force =
    Arg.(value & flag
         & info [ "force" ]
             ~doc:"Promote regardless of traffic volume and latency.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Operational promotion gate for an A/B experiment started with \
         $(b,portopt serve --registry --ab): fetches the server's \
         health (which arms are live) and metrics (per-arm request \
         counts and latency histograms), refuses to promote a \
         candidate that served too little traffic or regressed p99 \
         latency beyond budget, and otherwise points the registry's \
         $(b,stable) channel at the candidate version and asks the \
         server to reload.";
      `P
        "The gate compares serving behaviour, not model quality — \
         prediction quality is judged offline ($(b,crossval), \
         $(b,bench)); this guards the live flip.  Exit status 3 means \
         the gate refused.";
    ]
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:"Compare A/B arms and flip the registry's stable channel" ~man)
    Term.(const run $ obs_term "promote" $ registry_dir_arg $ address_term
          $ min_requests $ max_regression $ force)

let () =
  let envs =
    [
      Cmd.Env.info "REPRO_UARCHS"
        ~doc:"Microarchitectures sampled when training (default 24).";
      Cmd.Env.info "REPRO_OPTS"
        ~doc:"Optimisation settings sampled when training (default 120).";
      Cmd.Env.info "REPRO_SEED" ~doc:"Sampling seed (default 42).";
      Cmd.Env.info "REPRO_JOBS"
        ~doc:
          "Worker domains for dataset generation and cross-validation \
           (default: recommended domain count).  Results are bit-identical \
           at any value; 1 is fully sequential.";
    ]
  in
  let info =
    Cmd.info "portopt" ~version:"1.0.0" ~envs
      ~doc:"Portable compiler optimisation across programs and microarchitectures"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; dump_cmd; run_cmd; exec_cmd; spaces_cmd; flags_cmd;
            predict_cmd; train_cmd; crossval_cmd; serve_cmd; query_cmd;
            worker_cmd; report_cmd; metrics_cmd; top_cmd; store_cmd;
            evidence_cmd; registry_cmd; promote_cmd ]))
