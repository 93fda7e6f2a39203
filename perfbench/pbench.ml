(* pbench: the benchmark's in-process helper (see perfbench/README.md).

     pbench stream --model M --store S --seed N --count C --hot-set H
                   --hot-share F --out FILE
     pbench check-store S
     pbench replay --store S --model-out M --stream FILE --trace FILE
     pbench window --before FILE --after FILE --hist NAME

   Each subcommand prints one JSON object on stdout.  Training scale
   comes from the same REPRO_* variables [portopt train] reads. *)

open Common

let args () =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> fail "unexpected argument %s" a
  in
  let kv = go [] (List.tl (List.tl (Array.to_list Sys.argv))) in
  fun name ->
    match List.assoc_opt name kv with
    | Some v -> v
    | None -> fail "missing --%s" name

let stream () =
  let arg = args () in
  let artifact = load_artifact (arg "model") in
  let store = Store.open_ ~dir:(arg "store") in
  let queries =
    Stream.generate ~store ~seed:(int_of_string (arg "seed"))
      ~count:(int_of_string (arg "count"))
      ~hot_set:(int_of_string (arg "hot-set"))
      ~hot_share:(float_of_string (arg "hot-share"))
  in
  let distinct = Stream.write ~artifact ~path:(arg "out") queries in
  print_metrics
    [
      ("queries", float_of_int (Array.length queries));
      ("distinct", float_of_int distinct);
    ]

(* Every record in the store: its checksum must equal the reference
   checksum of the program its key names. *)
let check_store dir =
  let refs = reference_checksums ~check:"store" in
  let by_digest = Hashtbl.create 64 in
  Array.iteri (fun i d -> Hashtbl.add by_digest d refs.(i)) (program_digests ());
  let objects = Filename.concat dir "objects" in
  let records = ref 0 and bad = ref 0 in
  Array.iter
    (fun sub ->
      let subdir = Filename.concat objects sub in
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".rec" then begin
            incr records;
            match Store.load_record ~path:(Filename.concat subdir f) with
            | Ok (key, run) -> (
              match String.split_on_char '-' key with
              | [ _; digest; _ ] when Hashtbl.find_opt by_digest digest = Some run.Sim.Xtrem.checksum -> ()
              | _ -> incr bad)
            | Error _ -> incr bad
          end)
        (Sys.readdir subdir))
    (if Sys.file_exists objects then Sys.readdir objects else [||]);
  print_metrics
    [ ("records", float_of_int !records); ("bad", float_of_int !bad) ]

(* Quantiles of the samples a server histogram gained between two
   [metrics] snapshots, by the repository's own histogram algebra. *)
let window () =
  let arg = args () in
  let hist file =
    let snapshot = json_of_string (String.concat "\n" (read_lines file)) in
    Option.value ~default:(J.Obj [ ("count", J.Int 0) ])
      (Option.bind (J.member "histograms" snapshot) (J.member (arg "hist")))
  in
  match
    Obs.Metrics.delta_hist_json ~prev:(hist (arg "before")) (hist (arg "after"))
  with
  | Some d ->
    let q p = Option.value ~default:0.0 (Obs.Metrics.quantile_of_json d p) in
    print_metrics [ ("p50", q 0.5); ("p99", q 0.99) ]
  | None -> fail "histogram %s carries no bucket data" (arg "hist")

(* A layer's work count and its cost per unit of that work. *)
let per_unit name busy ~(train : Replay_train.result) ~serve_n =
  let tl = train.tally and dataset = train.dataset and model = train.model in
  let f = float_of_int in
  let calls n = f (Spans.total n).Spans.calls in
  let runs = f tl.Replay_train.runs in
  let count, den, scale, unit =
    match name with
    | "compile" -> (calls "compile", calls "compile", 1e3, "ms/compile")
    | "layout" -> (calls "layout", calls "layout", 1e6, "us/image")
    | "interp.exec" -> (runs, f tl.Replay_train.dyn_insts, 1e9, "ns/inst")
    | "interp.record" | "finalise" -> (runs, f tl.Replay_train.mem_accesses, 1e9, "ns/access")
    | "store" ->
      let ops = f (tl.Replay_train.finds + tl.Replay_train.puts) in
      (ops, ops, 1e6, "us/op")
    | "program" -> (calls "program", calls "program", 1e3, "ms/program")
    | "price" ->
      let evals =
        calls "price" *. (1.0 +. f (Array.length dataset.Ml_model.Dataset.settings))
      in
      (evals, evals, 1e9, "ns/eval")
    | "fit" | "model" ->
      let pairs = f (Ml_model.Model.n_points model) in
      (pairs, pairs, 1e6, "us/pair")
    | "artifact.write" -> (1.0, 1.0, 1.0, "s/artifact")
    | "knn" -> (calls "knn", calls "knn", 1e6, "us/query")
    | "codec" -> (2.0 *. serve_n, 2.0 *. serve_n, 1e6, "us/frame")
    | _ -> (serve_n, serve_n, 1e6, "us/request")
  in
  (count, (if den > 0.0 then busy *. scale /. den else 0.0), unit)

let replay () =
  let arg = args () in
  let out = arg "model-out" in
  let train = Replay_train.run ~store_dir:(arg "store") ~out in
  let train_metrics, train_layers = Replay_train.metrics train ~out in
  let tl = train.Replay_train.tally and version = train.Replay_train.version_id in
  let traced_train_s = train.Replay_train.traced_s in
  let artifact = load_artifact out in
  let stream = Stream.read (arg "stream") in
  let serve_bad = Replay_serve.run ~artifact ~stream in
  let serve_metrics, serve_layers = Replay_serve.metrics ~artifact ~stream in
  let serve_s = List.assoc "serve.replay_s" serve_metrics in
  let traced_s = traced_train_s +. serve_s in
  let layers = train_layers @ serve_layers in
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers in
  Spans.write ~path:(arg "trace") ~cmd:"perfbench-replay"
    ~extra:[ ("model", J.Str version) ];
  let serve_n = float_of_int (Array.length stream) in
  let table =
    List.map
      (fun (name, busy) ->
        let count, per, unit = per_unit name busy ~train ~serve_n in
        J.Obj
          [
            ("layer", J.Str name);
            ("count", J.Float count);
            ("busy_s", J.Float busy);
            ("share", J.Float (if traced_s > 0.0 then busy /. traced_s else 0.0));
            ("per_unit", J.Float per);
            ("unit", J.Str unit);
          ])
      layers
  in
  print_string
    (J.to_string
       (J.Obj
          [
            ( "metrics",
              J.Obj
                (List.map
                   (fun (k, v) -> (k, J.Float v))
                   (train_metrics @ serve_metrics
                   @ [
                       ("traced_s", traced_s);
                       ("layers.unattributed_s", traced_s -. attributed);
                     ])) );
            ("layers", J.List table);
            ("version_id", J.Str version);
            ("checked", J.Int (tl.Replay_train.checked + Array.length stream));
            ("failed", J.Int (tl.Replay_train.bad + serve_bad));
          ]));
  print_newline ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "stream" :: _ -> stream ()
  | [ _; "check-store"; dir ] -> check_store dir
  | _ :: "replay" :: _ -> replay ()
  | _ :: "window" :: _ -> window ()
  | _ ->
    prerr_endline "usage: pbench stream|check-store|replay|window ...";
    exit 2
