(* The traced train replay: the work of one [portopt train --store],
   repeated in-process with a span around every public call.

   [Ml_model.Dataset.generate ~backend:(Offload f)] hands the whole
   interpretation grid to [f], where the replay resolves each
   (program, setting) itself through the same two tiers the in-process
   path uses — a RAM table of canonical keys, then [Store.find_run] —
   and on a miss runs [Passes.Driver.compile], [Ir.Layout.place] and
   [Ir.Interp.run], then [Store.put_run].  Every pair is then re-priced
   with [Sim.Xtrem.time], [Dataset.good_set] and [Distribution.fit] and
   checked against the dataset; [Model.train] and [Serve.Artifact.save]
   finish the run.

   Two extra interpreter calls on each image split interpretation into
   its parts: [run ~trace:false] is execution alone, [run_traces] adds
   address recording, and [run] adds [Profile.finalise].  Those calls,
   the re-pricing and the artifact reload are diagnostics: the traced
   train time excludes them, so it stays comparable with an untraced
   [portopt train]. *)

open Common

let pass_steps =
  [|
    "constprop"; "licm"; "inline"; "unswitch"; "unroll"; "strength"; "cse";
    "gcse"; "licm-rerun"; "cse-rerun"; "regmove"; "dce"; "peephole";
    "dce-rerun"; "sibling"; "thread-jumps"; "crossjump"; "sched"; "regalloc";
    "reorder"; "align";
  |]

(* The artifact meta block [portopt train] writes, so the replay's
   artifact is byte-identical to the binary's. *)
let meta ~store (dataset : Ml_model.Dataset.t) =
  let scale = dataset.Ml_model.Dataset.scale in
  let programs_digest, settings_digest, uarchs_digest =
    Ml_model.Dataset.provenance_digests dataset
  in
  let created =
    match Sys.getenv_opt "SOURCE_DATE_EPOCH" with
    | Some s -> float_of_string s
    | None -> fail "SOURCE_DATE_EPOCH must be set"
  in
  [
    ("seed", J.Int scale.Ml_model.Dataset.seed);
    ("n_uarchs", J.Int scale.Ml_model.Dataset.n_uarchs);
    ("n_opts", J.Int scale.Ml_model.Dataset.n_opts);
    ("programs", J.Int (Array.length dataset.Ml_model.Dataset.specs));
    ("created_unix", J.Float created);
  ]
  @ Serve.Artifact.provenance ~store_dir:(Store.dir store) ~programs_digest
      ~settings_digest ~uarchs_digest ()

type tally = {
  mutable runs : int;
  mutable dyn_insts : int;
  mutable mem_accesses : int;
  mutable size_out : int;
  mutable finds : int;
  mutable hits : int;
  mutable puts : int;
  mutable bad : int;  (** Failed output checks. *)
  mutable checked : int;
}

type result = {
  tally : tally;
  dataset : Ml_model.Dataset.t;
  model : Ml_model.Model.t;
  version_id : string;
  traced_s : float;  (** The train's own work, diagnostics left out. *)
  store : Store.t;
}

let run ~store_dir ~out =
  let refs = reference_checksums ~check:"replay" in
  let index_of_spec =
    let t = Hashtbl.create 64 in
    Array.iteri (fun i s -> Hashtbl.add t s.Workloads.Spec.name i) programs;
    fun s -> Hashtbl.find t s.Workloads.Spec.name
  in
  let tl =
    {
      runs = 0;
      dyn_insts = 0;
      mem_accesses = 0;
      size_out = 0;
      finds = 0;
      hits = 0;
      puts = 0;
      bad = 0;
      checked = 0;
    }
  in
  let check ok =
    tl.checked <- tl.checked + 1;
    if not ok then tl.bad <- tl.bad + 1
  in
  let diag_s = ref 0.0 in
  let diagnostic name f =
    let t0 = Obs.Clock.now_s () in
    let v = Spans.with_ name f in
    diag_s := !diag_s +. (Obs.Clock.now_s () -. t0);
    v
  in
  let t_start = Obs.Clock.now_s () in
  let store = Spans.with_ "store.open" (fun () -> Store.open_ ~dir:store_dir) in
  let ram = Hashtbl.create 1024 in
  let profile ~pi ~program ~digest setting =
    let key = Store.profile_key ~program_digest:digest ~setting in
    match Hashtbl.find_opt ram key with
    | Some r -> { r with Sim.Xtrem.setting }
    | None ->
      tl.finds <- tl.finds + 1;
      let r =
        match Spans.with_ "store.find" (fun () -> Store.find_run store ~key) with
        | Some r ->
          tl.hits <- tl.hits + 1;
          r
        | None ->
          let compiled =
            Spans.with_ "compile" (fun () -> Passes.Driver.compile ~setting program)
          in
          let size = Ir.Types.program_size compiled in
          let image = Spans.with_ "layout" (fun () -> Ir.Layout.place compiled) in
          let checksum, profile =
            Spans.with_ "interp.run" (fun () -> Ir.Interp.run image)
          in
          let exec_checksum, _ =
            diagnostic "interp.exec" (fun () -> Ir.Interp.run ~trace:false image)
          in
          let traced_checksum, _, _ =
            diagnostic "interp.traces" (fun () -> Ir.Interp.run_traces compiled)
          in
          check
            (checksum = refs.(pi)
            && exec_checksum = checksum && traced_checksum = checksum);
          tl.runs <- tl.runs + 1;
          tl.dyn_insts <- tl.dyn_insts + profile.Ir.Profile.dyn_insts;
          tl.mem_accesses <- tl.mem_accesses + Ir.Profile.mem_accesses profile;
          tl.size_out <- tl.size_out + size;
          let r = { Sim.Xtrem.setting; profile; checksum; size = Some size } in
          Spans.with_ "store.put" (fun () -> Store.put_run store ~key r);
          tl.puts <- tl.puts + 1;
          r
      in
      Hashtbl.replace ram key r;
      { r with Sim.Xtrem.setting }
  in
  let evaluate groups =
    Spans.with_ "dataset.offload" (fun () ->
        Array.map
          (fun (spec, settings) ->
            let pi = index_of_spec spec in
            let program, digest =
              Spans.with_ "program" (fun () ->
                  let p = Workloads.Mibench.program_of spec in
                  (p, Store.program_digest p))
            in
            Array.map (profile ~pi ~program ~digest) settings)
          groups)
  in
  let scale = Ml_model.Dataset.default_scale () in
  let dataset =
    Spans.with_ "dataset.generate" (fun () ->
        Ml_model.Dataset.generate ~backend:(Ml_model.Dataset.Offload evaluate)
          scale)
  in
  let settings = dataset.Ml_model.Dataset.settings in
  let good_fraction = scale.Ml_model.Dataset.good_fraction in
  diagnostic "reprice" (fun () ->
      Array.iter
        (fun (pair : Ml_model.Dataset.pair) ->
          let pi = pair.Ml_model.Dataset.prog_index in
          let u = dataset.Ml_model.Dataset.uarchs.(pair.Ml_model.Dataset.uarch_index) in
          let o3_seconds, times =
            Spans.with_ "price" (fun () ->
                ( Sim.Xtrem.seconds dataset.Ml_model.Dataset.o3_runs.(pi) u,
                  Array.map
                    (fun r -> Sim.Xtrem.seconds r u)
                    dataset.Ml_model.Dataset.runs.(pi) ))
          in
          let good, distribution =
            Spans.with_ "fit" (fun () ->
                let good = Ml_model.Dataset.good_set ~good_fraction times in
                (good, Ml_model.Distribution.fit (Array.map (fun i -> settings.(i)) good)))
          in
          check
            (o3_seconds = pair.Ml_model.Dataset.o3_seconds
            && times = pair.Ml_model.Dataset.times
            && good = pair.Ml_model.Dataset.good
            && distribution = pair.Ml_model.Dataset.distribution))
        dataset.Ml_model.Dataset.pairs);
  let model = Spans.with_ "model" (fun () -> Ml_model.Model.train dataset) in
  let artifact =
    {
      Serve.Artifact.model;
      space = scale.Ml_model.Dataset.space;
      meta = meta ~store dataset;
    }
  in
  Spans.with_ "artifact.write" (fun () -> Serve.Artifact.save ~path:out artifact);
  let traced_s = Obs.Clock.now_s () -. t_start -. !diag_s in
  let loaded = diagnostic "artifact.load" (fun () -> load_artifact out) in
  let version_id = Serve.Artifact.version_id artifact in
  check (Serve.Artifact.version_id loaded = version_id);
  { tally = tl; dataset; model; version_id; traced_s; store }

let s name = (Spans.total name).Spans.wall
let calls name = float_of_int (Spans.total name).Spans.calls

let per ~num ~den scale = if den > 0.0 then num *. scale /. den else 0.0

(* The per-layer figures of the train path, named as in BENCHMARK.json. *)
let metrics { tally = tl; dataset; model; traced_s; store; _ } ~out =
  let exec = s "interp.exec" and traces = s "interp.traces" in
  let layout = s "layout" and interp = s "interp.run" in
  (* [run_traces] places its own image; the layout span times the same
     placement, so it is taken back out of the recording share. *)
  let record = traces -. exec -. layout in
  let finalise = interp -. (traces -. layout) in
  let evals =
    float_of_int
      (Array.length dataset.Ml_model.Dataset.pairs
      * (1 + Array.length dataset.Ml_model.Dataset.settings))
  in
  let layers =
    [
      ("compile", s "compile");
      ("layout", layout);
      ("interp.exec", exec);
      ("interp.record", record);
      ("finalise", finalise);
      ("store", s "store.open" +. s "store.find" +. s "store.put");
      ("program", s "program");
      ("price", s "price");
      ("fit", s "fit");
      ("model", s "model");
      ("artifact.write", s "artifact.write");
    ]
  in
  let dyn = float_of_int tl.dyn_insts and mem = float_of_int tl.mem_accesses in
  let finds = float_of_int tl.finds and hits = float_of_int tl.hits in
  [
    ("compile.s", s "compile");
    ("compile.calls", calls "compile");
    ("compile.size_out", float_of_int tl.size_out);
    ( "passes.applied",
      float_of_int (Obs.Metrics.value (Obs.Metrics.counter "passes.applied")) );
  ]
  @ Array.to_list
      (Array.map
         (fun step ->
           ( "pass." ^ step ^ ".s",
             Obs.Metrics.hist_sum (Obs.Metrics.hist ("pass." ^ step ^ ".seconds")) ))
         pass_steps)
  @ [
      ("layout.s", layout);
      ("layout.calls", calls "layout");
      ("interp.runs", float_of_int tl.runs);
      ("interp.exec_s", exec);
      ("interp.dyn_insts", dyn);
      ("interp.exec_ns_per_inst", per ~num:exec ~den:dyn 1e9);
      ("interp.record_s", record);
      ("interp.mem_accesses", mem);
      ("finalise.s", finalise);
      ("finalise.ns_per_access", per ~num:finalise ~den:mem 1e9);
      ("store.put_s", s "store.put");
      ("store.writes", float_of_int tl.puts);
      ("store.bytes", float_of_int (Store.stats store).Store.bytes);
      ("store.find_s", s "store.find");
      ("store.hits", hits);
      ("store.misses", finds -. hits);
      ("store.hit_ratio", per ~num:hits ~den:finds 1.0);
      ("price.s", s "price");
      ("price.evals", evals);
      ("price.ns_per_eval", per ~num:(s "price") ~den:evals 1e9);
      ("fit.s", s "fit");
      ("fit.pairs", calls "fit");
      ("model.s", s "model");
      ("model.pairs", float_of_int (Ml_model.Model.n_points model));
      ("artifact.write_s", s "artifact.write");
      ("artifact.bytes", float_of_int (Unix.stat out).Unix.st_size);
      ("artifact.load_s", s "artifact.load");
      ("train.traced_s", traced_s);
    ]
  , layers
