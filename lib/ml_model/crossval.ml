(** Leave-one-out cross-validation — section 5.1.1.

    For every program/microarchitecture pair, a model is trained on the
    pairs involving {e neither} the test program {e nor} the test
    microarchitecture, asked for the best setting from the test pair's
    -O3 features, and the prediction is compiled, interpreted and timed on
    the test microarchitecture.  The model therefore never sees the
    program or the configuration it is optimising for. *)

type outcome = {
  prog : int;
  uarch : int;
  predicted : Passes.Flags.setting;
  o3_seconds : float;
  predicted_seconds : float;
  best_seconds : float;  (** Best sampled setting: the iterative-compilation
                             upper bound of section 5.1.2. *)
}

let speedup o = o.o3_seconds /. o.predicted_seconds
let best_speedup o = o.o3_seconds /. o.best_seconds

(** Fraction of the iterative-compilation headroom captured, the paper's
    67% metric, over a set of outcomes: (mean model speedup - 1) /
    (mean best speedup - 1). *)
let fraction_of_best outcomes =
  let mean f = Prelude.Stats.mean (Array.map f outcomes) in
  let model = mean speedup -. 1.0 in
  let best = mean best_speedup -. 1.0 in
  if best <= 0.0 then 1.0 else model /. best

type predict =
  include_pair:(prog:int -> uarch:int -> bool) ->
  prog:int ->
  uarch:int ->
  Passes.Flags.setting

let m_folds = Obs.Metrics.counter "crossval.folds"

let run ?pool ?(backend = Dataset.In_process)
    ?(progress = fun (_ : string) -> ()) ?predict (d : Dataset.t) =
  let pool = match pool with Some p -> p | None -> Prelude.Pool.default () in
  let progress = Prelude.Pool.serialised progress in
  let predict =
    match predict with
    | Some f -> f
    | None ->
      fun ~include_pair ~prog ~uarch ->
        Model.predict
          (Model.train ~include_pair d)
          (Dataset.pair d ~prog ~uarch).Dataset.features_raw
  in
  let n_prog = Dataset.n_programs d and n_uarch = Dataset.n_uarchs d in
  let fold_seconds = Obs.Metrics.hist "crossval.fold.seconds" in
  Obs.Span.with_ "crossval.run"
    ~attrs:
      [
        ("programs", Obs.Json.Int n_prog);
        ("uarchs", Obs.Json.Int n_uarch);
        ("folds", Obs.Json.Int (n_prog * n_uarch));
      ]
    (fun () ->
      let parent = Obs.Span.current_id () in
      (* One ETA line per completed program's worth of folds, matching
         the historical per-program progress cadence. *)
      let tick =
        Obs.Span.ticker ~print:progress ~every:n_uarch
          ~total:(n_prog * n_uarch) "cross-validated"
      in
      (* Every fold's prediction first, each timed for its fold event.
         Training only reads the dataset, so the predictions are
         bit-identical at any job count. *)
      let predictions =
        Obs.Span.with_ "crossval.predict" (fun () ->
            Prelude.Pool.init pool (n_prog * n_uarch) (fun idx ->
                let prog = idx / n_uarch and uarch = idx mod n_uarch in
                let t0 = Obs.Clock.now_s () in
                let predicted =
                  predict
                    ~include_pair:(fun ~prog:p ~uarch:u ->
                      p <> prog && u <> uarch)
                    ~prog ~uarch
                in
                (predicted, Obs.Clock.now_s () -. t0)))
      in
      (* Then one profiling grid: each program's distinct predicted
         settings by canonical form, in fold order, fold [idx] reading
         its run from slot [slot.(idx)] of its program's group. *)
      let slot = Array.make (n_prog * n_uarch) 0 in
      let grid =
        Array.init n_prog (fun prog ->
            let seen = Hashtbl.create 16 and settings = ref [] in
            for idx = prog * n_uarch to ((prog + 1) * n_uarch) - 1 do
              let s = fst predictions.(idx) in
              let ck = Passes.Flags.cache_key s in
              if not (Hashtbl.mem seen ck) then begin
                Hashtbl.add seen ck (Hashtbl.length seen);
                settings := s :: !settings
              end;
              slot.(idx) <- Hashtbl.find seen ck
            done;
            Array.of_list (List.rev !settings))
      in
      let runs =
        Dataset.profile ~pool ~backend ~cache:d.Dataset.cache ~progress
          d.Dataset.specs grid
      in
      (* Last, every prediction is priced on its held-out pair from
         those runs: index-pure, so the outcomes are bit-identical at
         any job count and with either backend. *)
      Prelude.Pool.init pool (n_prog * n_uarch) (fun idx ->
          let prog = idx / n_uarch and uarch = idx mod n_uarch in
          let predicted, train_s = predictions.(idx) in
          let t0 = Obs.Clock.now_s () in
          let test = Dataset.pair d ~prog ~uarch in
          let predicted_seconds =
            Sim.Xtrem.seconds
              (snd runs.(prog)).(slot.(idx))
              d.Dataset.uarchs.(uarch)
          in
          let dur = train_s +. (Obs.Clock.now_s () -. t0) in
          Obs.Metrics.add m_folds 1;
          Obs.Metrics.observe fold_seconds dur;
          Obs.Span.event ~level:Obs.Trace.Debug ~parent "crossval.fold"
            [
              ("prog", Obs.Json.Int prog);
              ("uarch", Obs.Json.Int uarch);
              ("dur_s", Obs.Json.Float dur);
              ("train_s", Obs.Json.Float train_s);
            ];
          tick d.Dataset.specs.(prog).Workloads.Spec.name;
          {
            prog;
            uarch;
            predicted;
            o3_seconds = test.Dataset.o3_seconds;
            predicted_seconds;
            best_seconds = test.Dataset.best_seconds;
          }))
