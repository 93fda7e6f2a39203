(** Shared experiment state: one dataset and one cross-validation sweep per
    space, generated lazily and reused by every figure driver so that a
    full `bench/main.exe` run pays the training cost once. *)

type t = {
  scale : Ml_model.Dataset.scale;
  store : Store.t option;
  mutable dataset : Ml_model.Dataset.t option;
  mutable outcomes : Ml_model.Crossval.outcome array option;
  progress : string -> unit;
}

let create ?store ?(space = Ml_model.Features.Base) ?scale
    ?(progress = fun (_ : string) -> ()) () =
  let scale =
    match scale with
    | Some s -> s
    | None -> Ml_model.Dataset.default_scale ~space ()
  in
  (* Dataset generation and cross-validation run the callback from
     worker domains; serialise it once here so every figure driver
     inherits a domain-safe printer.  Every line is stamped with
     elapsed seconds ([Obs.Span.stamp]) before it reaches the caller's
     printer — the callback signature stays [string -> unit]. *)
  let progress = Prelude.Pool.serialised progress in
  { scale; store; dataset = None; outcomes = None;
    progress = (fun msg -> progress (Obs.Span.stamp msg)) }

let dataset t =
  match t.dataset with
  | Some d -> d
  | None ->
    t.progress "generating training data (compile + interpret, cached)";
    let d =
      Ml_model.Dataset.generate ?store:t.store ~progress:t.progress t.scale
    in
    t.dataset <- Some d;
    d

let outcomes t =
  match t.outcomes with
  | Some o -> o
  | None ->
    let d = dataset t in
    t.progress "running leave-one-out cross-validation";
    let o = Ml_model.Crossval.run ~progress:t.progress d in
    t.outcomes <- Some o;
    o

(* Aggregation helpers shared by the per-program and per-configuration
   figures, over either axis of the program x configuration grid. *)

type axis = Program | Uarch

let program_names t =
  Array.map (fun s -> s.Workloads.Spec.name) (dataset t).Ml_model.Dataset.specs

(** The axis's indices by mean best speedup ascending: figure 4/6's
    program order, as in the paper ("benchmarks ordered so that those
    with large performance increases are on the right"), and figure
    5/7's microarchitecture order. *)
let order t axis =
  let d = dataset t in
  let n_prog = Ml_model.Dataset.n_programs d in
  let n_uarch = Ml_model.Dataset.n_uarchs d in
  let n, across, pair =
    match axis with
    | Program ->
      (n_prog, n_uarch, fun i j -> Ml_model.Dataset.pair d ~prog:i ~uarch:j)
    | Uarch ->
      (n_uarch, n_prog, fun i j -> Ml_model.Dataset.pair d ~prog:j ~uarch:i)
  in
  let means =
    Array.init n (fun i ->
        Prelude.Stats.mean
          (Array.init across (fun j ->
               Ml_model.Dataset.best_speedup (pair i j))))
  in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare means.(a) means.(b)) order;
  order

(** Mean speedups (model, best) of one program across configurations,
    or of one configuration across programs. *)
let speedups t axis i =
  let on_axis (x : Ml_model.Crossval.outcome) =
    (match axis with Program -> x.prog | Uarch -> x.uarch) = i
  in
  let rows =
    Array.of_list (List.filter on_axis (Array.to_list (outcomes t)))
  in
  ( Prelude.Stats.mean (Array.map Ml_model.Crossval.speedup rows),
    Prelude.Stats.mean (Array.map Ml_model.Crossval.best_speedup rows) )
