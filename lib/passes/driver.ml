(** The pass pipeline: one compilation of a program under a flag setting.

    Ordering follows gcc's phase structure: tree-level cleanups, inlining,
    loop transformations, redundancy elimination, local cleanups, CFG
    simplification, scheduling, register lowering, then layout-affecting
    passes.  Dead-code elimination runs unconditionally (as at every gcc
    -O level) after the value-rewriting phases.

    The pipeline is a static table of named steps so the telemetry layer
    can observe each application: every applied pass updates the
    [pass.<name>.seconds] histogram and the [passes.applied] counter,
    and — when a trace sink is open — emits a [pass] leaf event with its
    wall duration and IR size delta under the enclosing [compile] span.
    Observation never alters the transformation order or results. *)

type step = {
  sname : string;
  enabled : Flags.config -> bool;
  apply : Flags.config -> Ir.Types.program -> Ir.Types.program;
}

let always (_ : Flags.config) = true

(* One entry per phase of the historical chain, in the exact order the
   chain applied them. *)
let steps =
  [|
    { sname = "constprop"; enabled = (fun c -> c.Flags.vrp);
      apply = (fun _ -> Constprop.run) };
    { sname = "licm"; enabled = (fun c -> c.Flags.pre);
      apply = (fun _ -> Licm.run) };
    { sname = "inline"; enabled = (fun c -> c.Flags.inline);
      apply = (fun c -> Inline.run c) };
    { sname = "unswitch"; enabled = (fun c -> c.Flags.unswitch);
      apply = (fun _ -> Unswitch.run) };
    { sname = "unroll"; enabled = (fun c -> c.Flags.unroll);
      apply = (fun c -> Unroll.run c) };
    { sname = "strength"; enabled = (fun c -> c.Flags.strength_reduce);
      apply = (fun _ -> Strength.run) };
    { sname = "cse"; enabled = always;
      apply =
        (fun c ->
          Cse.run ~follow_jumps:c.Flags.cse_follow_jumps
            ~skip_blocks:c.Flags.cse_skip_blocks) };
    { sname = "gcse"; enabled = (fun c -> c.Flags.gcse);
      apply = (fun c -> Gcse.run c) };
    { sname = "licm-rerun";
      enabled = (fun c -> c.Flags.rerun_loop_opt && c.Flags.pre);
      apply = (fun _ -> Licm.run) };
    { sname = "cse-rerun"; enabled = (fun c -> c.Flags.rerun_cse_after_loop);
      apply =
        (fun c ->
          Cse.run ~follow_jumps:c.Flags.cse_follow_jumps
            ~skip_blocks:c.Flags.cse_skip_blocks) };
    { sname = "regmove"; enabled = (fun c -> c.Flags.regmove);
      apply = (fun _ -> Regmove.run) };
    { sname = "dce"; enabled = always; apply = (fun _ -> Dce.run) };
    { sname = "peephole"; enabled = (fun c -> c.Flags.peephole2);
      apply = (fun _ -> Peephole.run) };
    { sname = "dce-rerun"; enabled = always; apply = (fun _ -> Dce.run) };
    { sname = "sibling"; enabled = (fun c -> c.Flags.sibling_calls);
      apply = (fun _ -> Sibling.run) };
    { sname = "thread-jumps"; enabled = (fun c -> c.Flags.thread_jumps);
      apply = (fun _ -> Thread_jumps.run) };
    { sname = "crossjump"; enabled = (fun c -> c.Flags.crossjump);
      apply = (fun c -> Crossjump.run ~expensive:c.Flags.expensive) };
    { sname = "sched"; enabled = (fun c -> c.Flags.sched);
      apply =
        (fun c ->
          Sched.run ~interblock:c.Flags.sched_interblock
            ~spec:c.Flags.sched_spec) };
    { sname = "regalloc"; enabled = always;
      apply =
        (fun c ->
          Regalloc.run ~caller_saves:c.Flags.caller_saves
            ~after_reload:c.Flags.gcse_after_reload) };
    { sname = "reorder"; enabled = (fun c -> c.Flags.reorder_blocks);
      apply = (fun _ -> Reorder.run) };
    { sname = "align"; enabled = always; apply = (fun c -> Align.run c) };
  |]

(** Digest of the pipeline shape — the ordered step names plus the
    optimisation-space fingerprint.  A cached profile is only valid for
    the pipeline that produced it, so the evaluation store folds this
    into every cache key: adding, removing or reordering a step (or
    changing the flag space) silently invalidates stale entries instead
    of serving them.  Pass {e implementations} are not fingerprinted —
    a semantic change to an existing pass must bump the store's record
    version (see [Store]). *)
let fingerprint =
  let d = Prelude.Fnv.create () in
  Array.iter
    (fun s ->
      Prelude.Fnv.add_string d s.sname;
      Prelude.Fnv.add_char d '|')
    steps;
  Prelude.Fnv.add_string d Flags.space_fingerprint;
  Prelude.Fnv.to_hex d

let m_compiles = Obs.Metrics.counter "passes.compiles"
let m_applied = Obs.Metrics.counter "passes.applied"

(* Registered on the first compile.  The first compiles run on several
   domains at once, and a lazy value forced concurrently raises
   [Lazy.Undefined], so the forcing is serialised. *)
let pass_hists =
  let hists =
    lazy
      (Array.map
         (fun s -> Obs.Metrics.hist ("pass." ^ s.sname ^ ".seconds"))
         steps)
  in
  let m = Mutex.create () in
  fun () -> Mutex.protect m (fun () -> Lazy.force hists)

let compile ?(setting = Flags.o3) program =
  let cfg = Flags.decode setting in
  let hists = pass_hists () in
  Obs.Metrics.add m_compiles 1;
  Obs.Span.with_ "compile"
    ~attrs:[ ("size_in", Obs.Json.Int (Ir.Types.program_size program)) ]
    (fun () ->
      let traced = Obs.Trace.on Obs.Trace.Info in
      let p = ref program in
      Array.iteri
        (fun i s ->
          if s.enabled cfg then begin
            let size_in = if traced then Ir.Types.program_size !p else 0 in
            let t0 = Obs.Clock.now_s () in
            let q = s.apply cfg !p in
            let dur = Obs.Clock.now_s () -. t0 in
            Obs.Metrics.add m_applied 1;
            Obs.Metrics.observe hists.(i) dur;
            if traced then
              Obs.Span.event "pass"
                [
                  ("name", Obs.Json.Str s.sname);
                  ("dur_s", Obs.Json.Float dur);
                  ("size_in", Obs.Json.Int size_in);
                  ("size_out", Obs.Json.Int (Ir.Types.program_size q));
                ];
            p := q
          end)
        steps;
      !p)

(** Compile and place: the unit of work cached by the experiment layer. *)
let compile_to_image ?setting program =
  Ir.Layout.place (compile ?setting program)
