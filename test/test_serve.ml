(* Tests for the serving subsystem: the pool's asynchronous submit the
   server dispatches through, model artifacts (round-trip bit-identity,
   strict load validation, load-vs-retrain speed), the wire protocol,
   and the server itself — concurrent end-to-end queries, the
   prediction cache, load shedding and graceful drain. *)

module J = Obs.Json

let check = Alcotest.check

(* ---- Pool: asynchronous submit -------------------------------------- *)

module Pool = Prelude.Pool

(* Poll [pred] until it holds or [timeout] passes: a latch that cannot
   hang the suite when the contract under test is broken. *)
let await ?(timeout = 2.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  pred ()

let test_pool_submit_runs_tasks () =
  let pool = Pool.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let hits = Atomic.make 0 in
      for _ = 1 to 20 do
        Pool.submit pool (fun () -> Atomic.incr hits)
      done;
      ignore (await ~timeout:5.0 (fun () -> Atomic.get hits = 20));
      check Alcotest.int "all async tasks ran" 20 (Atomic.get hits);
      check Alcotest.int "queue drained" 0 (Pool.pending pool))

let test_pool_submit_async_when_sequential () =
  let pool = Pool.create ~jobs:1 in
  let ran = ref [] and m = Mutex.create () in
  let record i = Mutex.protect m (fun () -> ran := i :: !ran) in
  let ran_so_far () = Mutex.protect m (fun () -> List.rev !ran) in
  (* A task that holds the pool's only runner until [gate] opens. *)
  let blocker ?started gate i () =
    Option.iter (fun s -> Atomic.set s true) started;
    ignore (await (fun () -> Atomic.get gate));
    record i
  in
  let gate = Atomic.make false and started = Atomic.make false in
  Pool.submit pool (blocker ~started gate 0);
  check Alcotest.(list int) "submit returned before the task ran" []
    (ran_so_far ());
  check Alcotest.bool "the task started off the caller's thread" true
    (await (fun () -> Atomic.get started));
  List.iter (fun i -> Pool.submit pool (fun () -> record i)) [ 1; 2; 3 ];
  check Alcotest.int "pending counts the queued tasks" 3 (Pool.pending pool);
  Atomic.set gate true;
  ignore (await (fun () -> List.length (ran_so_far ()) = 4));
  check Alcotest.(list int) "submission order" [ 0; 1; 2; 3 ] (ran_so_far ());
  (* Hold the runner again, queue two more, and shut down while they
     wait: shutdown must run them before it returns. *)
  let gate = Atomic.make false in
  Pool.submit pool (blocker gate 4);
  List.iter (fun i -> Pool.submit pool (fun () -> record i)) [ 5; 6 ];
  let opener =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Atomic.set gate true)
      ()
  in
  Pool.shutdown pool;
  Thread.join opener;
  check Alcotest.(list int) "shutdown ran the queued tasks"
    [ 0; 1; 2; 3; 4; 5; 6 ] (ran_so_far ());
  check Alcotest.int "nothing left queued" 0 (Pool.pending pool);
  Alcotest.check_raises "submit after shutdown" Pool.Closed (fun () ->
      Pool.submit pool ignore)

(* ---- datasets and artifacts -------------------------------------------- *)

let tiny_scale seed =
  {
    Ml_model.Dataset.n_uarchs = 2;
    n_opts = 8;
    seed;
    space = Ml_model.Features.Base;
    good_fraction = 0.1;
  }

(* Wall seconds spent generating the seed-42 dataset — the honest
   "retrain from nothing" cost the artifact load is measured against. *)
let gen42_seconds = ref 0.0

let dataset42 =
  lazy
    (let t0 = Unix.gettimeofday () in
     let d = Ml_model.Dataset.generate (tiny_scale 42) in
     gen42_seconds := Unix.gettimeofday () -. t0;
     d)

let dataset43 = lazy (Ml_model.Dataset.generate (tiny_scale 43))

let artifact_of dataset =
  let model = Ml_model.Model.train dataset in
  {
    Serve.Artifact.model;
    space = dataset.Ml_model.Dataset.scale.Ml_model.Dataset.space;
    meta = [ ("suite", J.Str "test") ];
  }

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "portopt_test_%d_%s" (Unix.getpid ()) name)

let all_raw_features dataset =
  Array.map
    (fun (p : Ml_model.Dataset.pair) -> p.Ml_model.Dataset.features_raw)
    dataset.Ml_model.Dataset.pairs

let check_models_bit_identical ~msg model loaded features =
  Array.iteri
    (fun i x ->
      let a = Ml_model.Model.predict_full model x in
      let b = Ml_model.Model.predict_full loaded x in
      if a.Ml_model.Predict.setting <> b.Ml_model.Predict.setting then
        Alcotest.failf "%s: setting differs on pair %d" msg i;
      if a.Ml_model.Predict.distribution <> b.Ml_model.Predict.distribution
      then Alcotest.failf "%s: distribution differs on pair %d" msg i;
      if a.Ml_model.Predict.neighbours <> b.Ml_model.Predict.neighbours then
        Alcotest.failf "%s: neighbours differ on pair %d" msg i)
    features

let test_artifact_roundtrip_bit_identical () =
  List.iter
    (fun (seed, dataset) ->
      let dataset = Lazy.force dataset in
      let artifact = artifact_of dataset in
      let path = tmp_path (Printf.sprintf "roundtrip_%d.pcm" seed) in
      Serve.Artifact.save ~path artifact;
      let loaded =
        match Serve.Artifact.load ~path with
        | Ok a -> a
        | Error e -> Alcotest.failf "load failed: %s" e
      in
      Sys.remove path;
      check Alcotest.int "k survives"
        (Ml_model.Model.k artifact.Serve.Artifact.model)
        (Ml_model.Model.k loaded.Serve.Artifact.model);
      check Alcotest.int "pairs survive"
        (Ml_model.Model.n_points artifact.Serve.Artifact.model)
        (Ml_model.Model.n_points loaded.Serve.Artifact.model);
      check Alcotest.bool "meta survives" true
        (loaded.Serve.Artifact.meta = artifact.Serve.Artifact.meta);
      check_models_bit_identical
        ~msg:(Printf.sprintf "seed %d" seed)
        artifact.Serve.Artifact.model loaded.Serve.Artifact.model
        (all_raw_features dataset))
    [ (42, dataset42); (43, dataset43) ]

let test_artifact_load_is_fast () =
  let dataset = Lazy.force dataset42 in
  let t0 = Unix.gettimeofday () in
  let model = Ml_model.Model.train dataset in
  let train_seconds = !gen42_seconds +. (Unix.gettimeofday () -. t0) in
  let path = tmp_path "speed.pcm" in
  Serve.Artifact.save ~path
    { Serve.Artifact.model; space = Ml_model.Features.Base; meta = [] };
  (* Warm the page cache, then time the load. *)
  ignore (Serve.Artifact.load ~path);
  let t0 = Unix.gettimeofday () in
  (match Serve.Artifact.load ~path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "load failed: %s" e);
  let load_seconds = Unix.gettimeofday () -. t0 in
  Sys.remove path;
  if train_seconds < 100.0 *. load_seconds then
    Alcotest.failf
      "artifact load must be >= 100x faster than retraining: train+gen \
       %.3fs, load %.3fs (%.0fx)"
      train_seconds load_seconds
      (train_seconds /. load_seconds)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let load_error path =
  match Serve.Artifact.load ~path with
  | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" path
  | Error e -> e

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let check_error_mentions ~msg needle err =
  if not (contains ~needle err) then
    Alcotest.failf "%s: error %S does not mention %S" msg err needle

(* First-occurrence textual replacement (no Str dependency). *)
let replace ~from ~into text =
  let n = String.length text and fn = String.length from in
  let rec find i =
    if i + fn > n then None
    else if String.sub text i fn = from then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> text
  | Some i ->
    String.sub text 0 i ^ into
    ^ String.sub text (i + fn) (n - i - fn)

let test_artifact_rejects_corruption () =
  let dataset = Lazy.force dataset42 in
  let artifact = artifact_of dataset in
  let path = tmp_path "negative.pcm" in
  Serve.Artifact.save ~path artifact;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let header_len = String.index text '\n' in

  (* Truncated: payload shorter than the header's byte count. *)
  write_file path (String.sub text 0 (String.length text / 2));
  check_error_mentions ~msg:"truncation" "truncated" (load_error path);

  (* Corrupted payload: flip a digit after the header. *)
  let corrupt = Bytes.of_string text in
  let i = header_len + 100 in
  Bytes.set corrupt i (if Bytes.get corrupt i = '1' then '2' else '1');
  write_file path (Bytes.to_string corrupt);
  check_error_mentions ~msg:"bit flip" "checksum mismatch" (load_error path);

  (* Wrong schema version. *)
  write_file path
    (replace ~from:"\"version\":2" ~into:"\"version\":99" text);
  check_error_mentions ~msg:"future version" "unsupported artifact version 99"
    (load_error path);

  (* Wrong magic. *)
  write_file path (replace ~from:"portopt-model" ~into:"someone-elses" text);
  check_error_mentions ~msg:"foreign file" "not a portopt model artifact"
    (load_error path);

  (* Not even JSON. *)
  write_file path "ELF\x7f\x00\x00";
  check_error_mentions ~msg:"garbage" "header" (load_error path);

  (* Empty. *)
  write_file path "";
  check_error_mentions ~msg:"empty" "truncated" (load_error path);
  Sys.remove path;

  (* Missing entirely. *)
  ignore (load_error (tmp_path "does_not_exist.pcm"))

(* ---- artifact versioning: v1 compatibility, frozen index --------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Rewrites a saved artifact with a transformed payload and a
   regenerated, internally consistent version-[version] header — how
   the tests manufacture version-1 files and index corruption without
   tripping the checksum first. *)
let payload_of_file path =
  let text = read_file path in
  let nl = String.index text '\n' in
  String.sub text (nl + 1) (String.length text - nl - 2)

(* Writes [payload] under a freshly signed version-[version] header, so
   whatever the payload holds reaches the payload decoder. *)
let write_signed ~path ~version payload =
  let header =
    J.to_string
      (J.Obj
         [
           ("magic", J.Str "portopt-model");
           ("version", J.Int version);
           ("checksum", J.Str (Prelude.Fnv.tagged_string payload));
           ("bytes", J.Int (String.length payload));
         ])
  in
  write_file path (header ^ "\n" ^ payload ^ "\n")

let rewrite_artifact ~path ~version transform =
  match J.of_string (payload_of_file path) with
  | Ok j -> write_signed ~path ~version (J.to_string (transform j))
  | Error e -> Alcotest.failf "payload unparseable: %s" e

let test_artifact_saves_frozen_index () =
  let artifact = artifact_of (Lazy.force dataset42) in
  let path = tmp_path "frozen.pcm" in
  Serve.Artifact.save ~path artifact;
  let text = read_file path in
  Sys.remove path;
  check Alcotest.bool "payload carries the index" true
    (contains ~needle:"\"index\":" text);
  check Alcotest.bool "header declares version 2" true
    (contains ~needle:"\"version\":2" text)

let test_artifact_v1_loads_and_rebuilds_index () =
  let dataset = Lazy.force dataset42 in
  let artifact = artifact_of dataset in
  let path = tmp_path "v1.pcm" in
  Serve.Artifact.save ~path artifact;
  (* A version-1 file is exactly a version-2 file without "index". *)
  rewrite_artifact ~path ~version:1 (function
    | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "index") fields)
    | j -> j);
  let loaded =
    match Serve.Artifact.load ~path with
    | Ok a -> a
    | Error e -> Alcotest.failf "v1 load failed: %s" e
  in
  Sys.remove path;
  (* The rebuilt index must predict bit-identically to the frozen one. *)
  check_models_bit_identical ~msg:"v1 rebuilt index"
    artifact.Serve.Artifact.model loaded.Serve.Artifact.model
    (all_raw_features dataset)

let test_artifact_rejects_corrupt_index () =
  let artifact = artifact_of (Lazy.force dataset42) in
  let n = Ml_model.Model.n_points artifact.Serve.Artifact.model in
  let path = tmp_path "badindex.pcm" in
  let reload_with_index index =
    Serve.Artifact.save ~path artifact;
    rewrite_artifact ~path ~version:2 (function
      | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) -> if k = "index" then (k, index) else (k, v))
             fields)
      | j -> j);
    load_error path
  in
  (* A leaf covering only row 0: every other row is missing. *)
  check_error_mentions ~msg:"missing rows" "vptree"
    (reload_with_index (J.List [ J.Int 0 ]));
  (* A row index out of range. *)
  check_error_mentions ~msg:"out of range" "vptree"
    (reload_with_index (J.List (List.init (n + 1) (fun i -> J.Int i))));
  (* A row listed twice. *)
  check_error_mentions ~msg:"duplicate row" "vptree"
    (reload_with_index
       (J.List (J.Int 0 :: List.init n (fun i -> J.Int i))));
  (* Not a tree shape at all. *)
  check_error_mentions ~msg:"bad shape" "index"
    (reload_with_index (J.Str "zap"));
  Sys.remove path

(* ---- the codec: version ids, non-canonical and hostile payloads -------- *)

let read_ok path =
  match Serve.Artifact.read ~path with
  | Ok loaded -> loaded
  | Error e -> Alcotest.failf "%s: read failed: %s" path e

(* A model over the given pairs' distributions in [space]: the rows are
   recomputed from each pair's -O3 counters, so no second dataset has
   to be generated for the extended space. *)
let model_of_pairs ?mask space pairs =
  let features_raw =
    Array.map
      (fun (d, (p : Ml_model.Dataset.pair)) ->
        let uarch = d.Ml_model.Dataset.uarchs.(p.Ml_model.Dataset.uarch_index) in
        let v =
          Sim.Xtrem.time
            d.Ml_model.Dataset.o3_runs.(p.Ml_model.Dataset.prog_index)
            uarch
        in
        Ml_model.Features.raw space v.Sim.Pipeline.counters uarch)
      pairs
  in
  Ml_model.Model.of_parts ?mask ~features_raw
    ~distributions:
      (Array.map (fun (_, (p : Ml_model.Dataset.pair)) -> p.distribution) pairs)
    ()

let pairs_of d = Array.map (fun p -> (d, p)) d.Ml_model.Dataset.pairs

(* The header line and the whole payload line [save] writes. *)
let encode_lines a =
  let s = Serve.Artifact.encode a in
  (s.Prelude.Envelope.header, String.concat "" s.Prelude.Envelope.chunks)

(* The payload as the JSON tree printer renders it: the reference the
   streaming encoder must match byte for byte. *)
let tree_payload (a : Serve.Artifact.t) =
  let r = Ml_model.Model.export a.Serve.Artifact.model in
  let list f xs = J.List (Array.to_list (Array.map f xs)) in
  let floats = list (fun f -> J.Float f) in
  let rows = list floats in
  let rec index = function
    | Ml_model.Vptree.Leaf idxs -> list (fun i -> J.Int i) idxs
    | Ml_model.Vptree.Split { vp; mu; inner; outer } ->
      J.Obj
        [
          ("vp", J.Int vp);
          ("mu", J.Float mu);
          ("in", index inner);
          ("out", index outer);
        ]
  in
  let means, stds = r.Ml_model.Model.r_normaliser in
  J.to_string
    (J.Obj
       [
         ("k", J.Int r.Ml_model.Model.r_k);
         ("beta", J.Float r.Ml_model.Model.r_beta);
         ( "space",
           J.Str
             (match a.Serve.Artifact.space with
             | Ml_model.Features.Base -> "base"
             | Ml_model.Features.Extended -> "extended") );
         ( "mask",
           match r.Ml_model.Model.r_mask with
           | None -> J.Null
           | Some m -> list (fun b -> J.Bool b) m );
         ("normaliser", J.Obj [ ("mean", floats means); ("std", floats stds) ]);
         ("features", rows r.Ml_model.Model.r_features);
         ("distributions", list rows r.Ml_model.Model.r_distributions);
         ( "index",
           match r.Ml_model.Model.r_index with
           | None -> J.Null
           | Some root -> index root );
         ("meta", J.Obj a.Serve.Artifact.meta);
       ])

let test_artifact_read_returns_version_id () =
  let d42 = Lazy.force dataset42 and d43 = Lazy.force dataset43 in
  let base = Ml_model.Features.Base and ext = Ml_model.Features.Extended in
  let mask space =
    Array.init (Ml_model.Features.dim space) (fun i -> i mod 3 <> 0)
  in
  let artifact ?(meta = [ ("suite", J.Str "test") ]) ?mask space pairs =
    { Serve.Artifact.model = model_of_pairs ?mask space pairs; space; meta }
  in
  let cases =
    [
      ("base", artifact base (pairs_of d42));
      ("base, masked", artifact ~mask:(mask base) base (pairs_of d42));
      ("extended", artifact ext (pairs_of d42));
      ("extended, masked", artifact ~mask:(mask ext) ext (pairs_of d42));
      ( "objective meta",
        artifact
          ~meta:
            [
              ("suite", J.Str "test");
              ( "objective",
                J.Str
                  (Objective.Spec.to_string
                     (Objective.Spec.Weighted { c = 0.5; s = 0.25; e = 0.25 }))
              );
            ]
          base (pairs_of d42) );
      ("one pair", artifact base [| (d42, d42.Ml_model.Dataset.pairs.(0)) |]);
      ( "many pairs",
        artifact base (Array.append (pairs_of d42) (pairs_of d43)) );
    ]
  in
  let path = tmp_path "ids.pcm" in
  List.iter
    (fun (name, a) ->
      check Alcotest.bool (name ^ ": payload is the tree printer's") true
        (snd (encode_lines a) = tree_payload a);
      Serve.Artifact.save ~path a;
      let id, loaded = read_ok path in
      check Alcotest.string (name ^ ": id is version_id of the saved artifact")
        (Serve.Artifact.version_id a) id;
      check Alcotest.string (name ^ ": and of the decoded one")
        (Serve.Artifact.version_id loaded) id;
      check Alcotest.bool (name ^ ": meta survives") true
        (loaded.Serve.Artifact.meta = a.Serve.Artifact.meta))
    cases;
  (* Version 1: the header digests a payload without an index, so the
     id is that of the decoded artifact. *)
  let a = List.assoc "base" cases in
  Serve.Artifact.save ~path a;
  rewrite_artifact ~path ~version:1 (function
    | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "index") fields)
    | j -> j);
  let id, loaded = read_ok path in
  Sys.remove path;
  check Alcotest.string "version 1: id is version_id of the decoded artifact"
    (Serve.Artifact.version_id loaded) id;
  check Alcotest.string "version 1: which is the version-2 id"
    (Serve.Artifact.version_id a) id

(* Prints a payload the way no build writes it: whitespace between every
   token (never a newline, which would end the payload line), members in
   reverse order outside [meta], unknown and duplicated keys after the
   real ones, and integral floats as integer tokens.  [meta] and the
   unknown members' values are printed as they are. *)
let rec noncanonical buf ~in_meta j =
  let ws () = Buffer.add_string buf " \t " in
  let value = noncanonical buf in
  match j with
  | J.Float f when Float.is_integer f && Float.abs f < 1e15 && not (Float.sign_bit f) ->
    Buffer.add_string buf (string_of_int (int_of_float f))
  | J.List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        ws ();
        value ~in_meta item)
      items;
    ws ();
    Buffer.add_char buf ']'
  | J.Obj fields ->
    let fields =
      if in_meta then fields
      else
        List.rev fields
        @ [ ("unknown", J.List [ J.Obj [ ("x", J.Null) ]; J.Str "y" ]) ]
        @ (match fields with
          | (k, _) :: _ -> [ (k, J.Str "a duplicate: the first one wins") ]
          | [] -> [])
    in
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        ws ();
        Buffer.add_string buf (J.to_string (J.Str k));
        ws ();
        Buffer.add_char buf ':';
        ws ();
        value ~in_meta:(in_meta || k = "meta" || k = "unknown") item)
      fields;
    ws ();
    Buffer.add_char buf '}'
  | j -> Buffer.add_string buf (J.to_string j)

let test_artifact_reads_noncanonical_payloads () =
  let dataset = Lazy.force dataset42 in
  let artifact = artifact_of dataset in
  let path = tmp_path "noncanonical.pcm" in
  Serve.Artifact.save ~path artifact;
  let canonical_id, canonical = read_ok path in
  let payload =
    match J.of_string (payload_of_file path) with
    | Ok j ->
      let buf = Buffer.create 65536 in
      noncanonical buf ~in_meta:false j;
      Buffer.contents buf
    | Error e -> Alcotest.failf "payload unparseable: %s" e
  in
  let has needles text = List.exists (fun needle -> contains ~needle text) needles in
  check Alcotest.bool "the canonical payload has integral floats" true
    (has [ ",0.0,"; ",1.0," ] (payload_of_file path));
  check Alcotest.bool "the rewrite has integer tokens for them" true
    (has [ "\t 0,"; "\t 1," ] payload
    && not (has [ "\t 0.0,"; "\t 0.0 "; "\t 1.0,"; "\t 1.0 " ] payload));
  write_signed ~path ~version:2 payload;
  let id, loaded = read_ok path in
  Sys.remove path;
  check Alcotest.string "served under the digest of the bytes it was read from"
    (Prelude.Fnv.digest_string payload) id;
  check Alcotest.string "re-encodes to the canonical payload" canonical_id
    (Serve.Artifact.version_id loaded);
  check Alcotest.bool "meta survives" true
    (loaded.Serve.Artifact.meta = canonical.Serve.Artifact.meta);
  check_models_bit_identical ~msg:"non-canonical payload"
    canonical.Serve.Artifact.model loaded.Serve.Artifact.model
    (all_raw_features dataset)

(* Every truncation point and single-byte mutation of a small payload,
   each under a re-signed header so it reaches the decoder: the answer is
   [Ok] or [Error], never an exception. *)
let test_artifact_hostile_payloads () =
  let d = Lazy.force dataset42 in
  let artifact =
    {
      Serve.Artifact.model =
        model_of_pairs Ml_model.Features.Base
          (Array.sub (pairs_of d) 0 2);
      space = Ml_model.Features.Base;
      meta = [ ("suite", J.Str "test") ];
    }
  in
  (* Two rows make a one-leaf index; give the payload a split as well,
     so the mutations reach every part of the grammar. *)
  let split =
    J.Obj
      [
        ("vp", J.Int 0);
        ("mu", J.Float 1.5);
        ("in", J.List [ J.Int 1 ]);
        ("out", J.List []);
      ]
  in
  let payload =
    match J.of_string (snd (encode_lines artifact)) with
    | Ok (J.Obj fields) ->
      J.to_string
        (J.Obj
           (List.map
              (fun (k, v) -> if k = "index" then (k, split) else (k, v))
              fields))
    | _ -> Alcotest.fail "payload unparseable"
  in
  let path = tmp_path "hostile.pcm" in
  write_signed ~path ~version:2 payload;
  ignore (read_ok path);
  let ok = ref 0 and rejected = ref 0 in
  let attempt what mutated =
    write_signed ~path ~version:2 mutated;
    match Serve.Artifact.read ~path with
    | Ok _ -> incr ok
    | Error _ -> incr rejected
    | exception e ->
      Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  let n = String.length payload in
  for i = 0 to n - 1 do
    attempt (Printf.sprintf "truncation at %d" i) (String.sub payload 0 i)
  done;
  let structural =
    [| '0'; '-'; 'e'; '.'; '"'; ','; ':'; '['; ']'; '{'; '}'; 'n'; ' ' |]
  in
  for i = 0 to n - 1 do
    let with_byte c =
      let b = Bytes.of_string payload in
      Bytes.set b i c;
      attempt (Printf.sprintf "byte %d set to %C" i c) (Bytes.to_string b)
    in
    with_byte (Char.chr (Char.code payload.[i] lxor 0x01));
    with_byte (Char.chr (Char.code payload.[i] lxor 0x80));
    Array.iter (fun c -> if c <> payload.[i] then with_byte c) structural
  done;
  Sys.remove path;
  check Alcotest.bool "most mutations are rejected" true (!rejected > !ok)

(* A re-signed payload whose normaliser would turn every query into
   infinities or NaNs is refused at load with a typed error.  JSON has
   no infinity literal, but 1e999 reads as one. *)
let test_artifact_rejects_bad_normaliser () =
  let artifact = artifact_of (Lazy.force dataset42) in
  let means, stds =
    (Ml_model.Model.export artifact.Serve.Artifact.model)
      .Ml_model.Model.r_normaliser
  in
  let path = tmp_path "badnorm.pcm" in
  Serve.Artifact.save ~path artifact;
  let payload = payload_of_file path in
  (* The payload with the first entry of [field] printed as [lit]. *)
  let first field values lit =
    let at v = Printf.sprintf "\"%s\":[%s," field v in
    let text =
      replace ~from:(at (J.to_string (J.Float values.(0)))) ~into:(at lit)
        payload
    in
    if text = payload then Alcotest.failf "no %s entry to replace" field;
    text
  in
  write_signed ~path ~version:2 (first "std" stds "2.5");
  ignore (read_ok path);
  List.iter
    (fun (what, text) ->
      write_signed ~path ~version:2 text;
      let e = load_error path in
      check_error_mentions ~msg:what "model:" e;
      check_error_mentions ~msg:what "normaliser" e)
    [
      ("zero std", first "std" stds "0.0");
      ("negative std", first "std" stds "-1.5");
      ("infinite std", first "std" stds "1e999");
      ("infinite mean", first "mean" means "1e999");
      ("negative infinite mean", first "mean" means "-1e999");
    ];
  Sys.remove path

(* The bytes [encode] writes do not depend on how the model was obtained:
   trained in-process, read back from a version-2 file (its frozen tree
   written back as it was) or from a version-1 file (the tree built at
   encode). *)
let test_artifact_encode_same_bytes_across_loads () =
  let d = Lazy.force dataset42 in
  let ext = Ml_model.Features.Extended in
  let mask = Array.init (Ml_model.Features.dim ext) (fun i -> i mod 4 <> 1) in
  let path = tmp_path "encode.pcm" in
  List.iter
    (fun (name, a) ->
      let fresh = encode_lines a in
      Serve.Artifact.save ~path a;
      let header, payload = fresh in
      check Alcotest.string (name ^ ": the file is the encoding")
        (header ^ "\n" ^ payload ^ "\n")
        (read_file path);
      let _, v2 = read_ok path in
      rewrite_artifact ~path ~version:1 (function
        | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "index") fields)
        | j -> j);
      let _, v1 = read_ok path in
      check
        Alcotest.(pair string string)
        (name ^ ": a loaded version-2 file") fresh (encode_lines v2);
      check
        Alcotest.(pair string string)
        (name ^ ": a loaded version-1 file") fresh (encode_lines v1))
    [
      ("trained", artifact_of d);
      ( "extended, masked",
        {
          Serve.Artifact.model = model_of_pairs ~mask ext (pairs_of d);
          space = ext;
          meta = [ ("suite", J.Str "test") ];
        } );
    ];
  Sys.remove path

(* Rows that mix every class of number token the decoder meets: values
   read by the exact fast path, values only [float_of_string] reads
   (17 digits, 2^53 and more in the digits, exponents past 10^+-22),
   signed zeros and extremes.  They decode to the same bits and
   re-encode to the same bytes. *)
let test_artifact_mixed_tokens_round_trip () =
  let a = artifact_of (Lazy.force dataset42) in
  let r = Ml_model.Model.export a.Serve.Artifact.model in
  let values =
    [| 0.0; -0.0; 1.0; -2.5; 0.5; 2.5e-7; 123456.789; 1e22; 1e23; 1e-22;
       1e-23; 1.5e300; -1e-300; 0.1 +. 0.2; 1.0 /. 3.0; 5e-324;
       2.2250738585072014e-308; 1.7976931348623157e308; 900719925474099.1;
       9007199254740991.0; 9007199254740992.0; 1e16; 12345678901234567890.0 |]
  in
  let pick i = values.(i mod Array.length values) in
  let features =
    Array.mapi
      (fun i row -> Array.mapi (fun j _ -> pick ((i * 7) + j)) row)
      r.Ml_model.Model.r_features
  in
  let distributions =
    Array.mapi
      (fun i dims ->
        Array.mapi
          (fun l row -> Array.mapi (fun k _ -> Float.abs (pick (i + l + k))) row)
          dims)
      r.Ml_model.Model.r_distributions
  in
  let model =
    match
      Ml_model.Model.import
        { r with Ml_model.Model.r_features = features; r_distributions = distributions }
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "import: %s" e
  in
  let mixed = { a with Serve.Artifact.model } in
  let path = tmp_path "mixed.pcm" in
  Serve.Artifact.save ~path mixed;
  let id, loaded = read_ok path in
  Sys.remove path;
  let back = Ml_model.Model.export loaded.Serve.Artifact.model in
  let bits rows = Array.map (Array.map Int64.bits_of_float) rows in
  check Alcotest.bool "feature rows decode bit for bit" true
    (bits back.Ml_model.Model.r_features = bits features);
  check Alcotest.bool "distributions decode bit for bit" true
    (Array.map bits back.Ml_model.Model.r_distributions
    = Array.map bits distributions);
  check
    Alcotest.(pair string string)
    "re-encodes to the bytes it was read from" (encode_lines mixed)
    (encode_lines loaded);
  check Alcotest.string "read under its version id"
    (Serve.Artifact.version_id mixed) id

(* A payload of several chunks joins to the tree printer's payload.  A
   chunk is cut only once it holds 64 KiB, and only between rows and
   before sections, so none holds more than 64 KiB plus one row or
   section with its separators.  Encoding holds the payload about
   once: its major-heap words, as [Gc.counters] counts them for the
   calling domain alone (OCaml 5.1), stay within 1.25 times the
   payload's bytes; printing into one growing buffer and copying it
   out took 4.40 times on this artifact.  The artifact encoded is a
   loaded one, which carries its VP-tree, so the count is the
   encoder's own and not the tree build a freshly trained model's
   export adds. *)
let test_artifact_encodes_in_chunks () =
  let d42 = Lazy.force dataset42 in
  let space = Ml_model.Features.Base in
  let trained =
    {
      Serve.Artifact.model =
        model_of_pairs space
          (Array.concat (List.init 40 (fun _ -> pairs_of d42)));
      space;
      meta = [ ("suite", J.Str "test") ];
    }
  in
  let path = tmp_path "chunks.pcm" in
  Serve.Artifact.save ~path trained;
  let _, a = read_ok path in
  Sys.remove path;
  let chunk = 65536 in
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let sealed = Serve.Artifact.encode a in
  let _, _, major1 = Gc.counters () in
  let chunks = sealed.Prelude.Envelope.chunks in
  let payload = String.concat "" chunks in
  check Alcotest.bool "the chunks join to the tree printer's payload" true
    (payload = tree_payload a);
  check Alcotest.int "bytes" (String.length payload)
    sealed.Prelude.Envelope.bytes;
  check Alcotest.bool "at least 3 chunks" true (List.length chunks >= 3);
  let fields =
    match J.of_string payload with
    | Ok (J.Obj fields) -> fields
    | _ -> Alcotest.fail "payload is not an object"
  in
  let printed v = String.length (J.to_string v) in
  let section name = printed (List.assoc name fields) in
  let items name =
    match List.assoc name fields with
    | J.List items -> List.map printed items
    | _ -> Alcotest.failf "%S is not a list" name
  in
  let largest =
    List.fold_left max 0
      (section "normaliser" :: section "index" :: section "meta"
      :: (items "features" @ items "distributions"))
  in
  List.iteri
    (fun i c ->
      let n = String.length c in
      if n > chunk + largest + 64 then
        Alcotest.failf "chunk %d holds %d bytes (largest unit %d)" i n largest;
      if i < List.length chunks - 1 && n < chunk then
        Alcotest.failf "chunk %d was cut at %d bytes" i n)
    chunks;
  let ratio =
    (major1 -. major0) *. float_of_int (Sys.word_size / 8)
    /. float_of_int sealed.Prelude.Envelope.bytes
  in
  if ratio > 1.25 then
    Alcotest.failf "encode allocated %.2f times the payload's %d bytes" ratio
      sealed.Prelude.Envelope.bytes

(* ---- quantise: the cache-key kernel ------------------------------------ *)

let test_quantise_signed_zero_and_nan () =
  let q = Serve.Server.quantise in
  check Alcotest.string "-0.0 and 0.0 share a key" (q [| 0.0 |])
    (q [| -0.0 |]);
  check Alcotest.bool "grid rounding collapses 1e-9" true
    (q [| 1e-9 |] = q [| 0.0 |]);
  check Alcotest.bool "distinct values, distinct keys" true
    (q [| 1.0 |] <> q [| 2.0 |]);
  check Alcotest.bool "order matters" true (q [| 1.0; 2.0 |] <> q [| 2.0; 1.0 |]);
  (* Non-finite values are rejected at the protocol layer, but the key
     kernel must still be deterministic and collision-free on them
     rather than hitting unspecified Int64.of_float behaviour. *)
  check Alcotest.string "nan key is deterministic" (q [| Float.nan |])
    (q [| Float.nan |]);
  check Alcotest.bool "nan does not collide with zero" true
    (q [| Float.nan |] <> q [| 0.0 |]);
  check Alcotest.bool "infinities get distinct keys" true
    (q [| Float.infinity |] <> q [| Float.neg_infinity |]);
  check Alcotest.bool "huge finite does not collide with infinity" true
    (q [| 1e300 |] <> q [| Float.infinity |])

let some_uarch () =
  (Lazy.force dataset42).Ml_model.Dataset.uarchs.(0)

let some_counters () =
  let d = Lazy.force dataset42 in
  let v = Sim.Xtrem.time d.Ml_model.Dataset.o3_runs.(0) (some_uarch ()) in
  v.Sim.Pipeline.counters

let test_protocol_request_roundtrip () =
  let counters = some_counters () in
  let uarch = some_uarch () in
  let j =
    Serve.Protocol.request_to_json ~id:7
      (Serve.Protocol.Predict { counters; uarch; objective = None })
  in
  (* Through the printer and parser, as on the wire. *)
  let j =
    match J.of_string (J.to_string j) with Ok j -> j | Error e -> failwith e
  in
  (match Serve.Protocol.request_of_json j with
  | Ok (Serve.Protocol.Predict { counters = c; uarch = u; objective = None }) ->
    check Alcotest.bool "counters survive" true
      (Sim.Counters.to_array c = Sim.Counters.to_array counters);
    check Alcotest.bool "uarch survives" true (u = uarch)
  | Ok _ -> Alcotest.fail "decoded as a different op"
  | Error e -> Alcotest.failf "decode failed: %s" e);
  check Alcotest.bool "id echoed" true
    (Serve.Protocol.request_id j = Some (J.Int 7))

let test_protocol_rejects_bad_requests () =
  let bad s =
    match J.of_string s with
    | Error _ -> ()
    | Ok j -> (
      match Serve.Protocol.request_of_json j with
      | Ok _ -> Alcotest.failf "accepted %s" s
      | Error _ -> ())
  in
  bad {|{"op":"frobnicate"}|};
  bad {|{"op":"predict"}|};
  bad {|{"op":"predict","counters":[1,2,3],"uarch":{}}|};
  bad {|{"op":"predict","counters":"nope","uarch":{}}|}

let test_protocol_error_responses () =
  let e = Serve.Protocol.error_to_json ~code:429 "busy" in
  match Serve.Protocol.check_response e with
  | Ok _ -> Alcotest.fail "error response passed check_response"
  | Error (code, msg) ->
    check Alcotest.int "code" 429 code;
    check Alcotest.string "message" "busy" msg

let test_protocol_rejects_non_finite_counters () =
  (* JSON has no literal for infinity, but "1e999" overflows
     float_of_string into one — the parser lets it through, so the
     protocol layer must be the backstop. *)
  (match J.of_string "[1e999]" with
  | Ok (J.List [ j ]) ->
    (match J.to_float j with
    | Some f ->
      check Alcotest.bool "1e999 parses to an infinity" true
        (not (Float.is_finite f))
    | None -> Alcotest.fail "1e999 did not parse as a float")
  | Ok _ | Error _ -> Alcotest.fail "[1e999] did not parse as a list");
  let uarch = some_uarch () in
  let with_counter v =
    let counters =
      match Serve.Protocol.counters_to_json (some_counters ()) with
      | J.List (_ :: rest) -> J.List (v :: rest)
      | _ -> Alcotest.fail "counters did not encode as a list"
    in
    J.Obj
      [
        ("op", J.Str "predict");
        ("counters", counters);
        ("uarch", Serve.Protocol.uarch_to_json uarch);
      ]
  in
  (match Serve.Protocol.request_of_json (with_counter (J.Float Float.nan)) with
  | Ok _ -> Alcotest.fail "accepted a NaN counter"
  | Error e -> check_error_mentions ~msg:"nan counter" "non-finite" e);
  (match
     Serve.Protocol.request_of_json (with_counter (J.Float Float.infinity))
   with
  | Ok _ -> Alcotest.fail "accepted an infinite counter"
  | Error e -> check_error_mentions ~msg:"infinite counter" "non-finite" e);
  (* A finite vector still passes. *)
  match Serve.Protocol.request_of_json (with_counter (J.Float 0.5)) with
  | Ok (Serve.Protocol.Predict _) -> ()
  | Ok _ -> Alcotest.fail "decoded as a different op"
  | Error e -> Alcotest.failf "rejected a finite vector: %s" e

let test_protocol_batch_roundtrip_and_limits () =
  let counters = some_counters () and uarch = some_uarch () in
  let queries = Array.make 3 (counters, uarch) in
  let j =
    Serve.Protocol.request_to_json ~id:9
      (Serve.Protocol.Predict_batch { queries; objective = None })
  in
  let j =
    match J.of_string (J.to_string j) with Ok j -> j | Error e -> failwith e
  in
  (match Serve.Protocol.request_of_json j with
  | Ok (Serve.Protocol.Predict_batch { queries = qs; objective = None }) ->
    check Alcotest.int "all queries survive" 3 (Array.length qs);
    Array.iter
      (fun (c, u) ->
        check Alcotest.bool "counters survive" true
          (Sim.Counters.to_array c = Sim.Counters.to_array counters);
        check Alcotest.bool "uarch survives" true (u = uarch))
      qs
  | Ok _ -> Alcotest.fail "decoded as a different op"
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* An empty batch is meaningless; over max_batch is unbounded work on
     one admission slot — both rejected with a parse error. *)
  let reject msg queries needle =
    let j =
      Serve.Protocol.request_to_json
        (Serve.Protocol.Predict_batch { queries; objective = None })
    in
    match Serve.Protocol.request_of_json j with
    | Ok _ -> Alcotest.failf "accepted %s" msg
    | Error e -> check_error_mentions ~msg needle e
  in
  reject "an empty batch" [||] "empty";
  reject "an oversized batch"
    (Array.make (Serve.Protocol.max_batch + 1) (counters, uarch))
    "at most";
  (* A bad query deep in the vector is reported with its position. *)
  let j =
    match
      Serve.Protocol.request_to_json
        (Serve.Protocol.Predict_batch { queries; objective = None })
    with
    | J.Obj fields ->
      J.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "queries", J.List [ a; b; _ ] ->
               (k, J.List [ a; b; J.Obj [ ("counters", J.Str "nope") ] ])
             | _ -> (k, v))
           fields)
    | _ -> Alcotest.fail "batch request did not encode as an object"
  in
  match Serve.Protocol.request_of_json j with
  | Ok _ -> Alcotest.fail "accepted a malformed query"
  | Error e -> check_error_mentions ~msg:"positioned error" "query 2" e

(* ---- server end-to-end ------------------------------------------------- *)

(* An in-memory artifact with the id the server keys it under. *)
let with_id a = (Serve.Artifact.version_id a, a)

let with_server ?(jobs = 2) ?(queue = 8) ?(cache = 256) ?(admin = false)
    ?(split = 0.0) ?source ?watch ?candidate artifact f =
  let socket = tmp_path (Printf.sprintf "srv_%d.sock" (Random.bits ())) in
  let config =
    {
      Serve.Server.address = Net.Addr.Unix_path socket;
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
    Serve.Server.start
      ?candidate:(Option.map with_id candidate)
      ~artifact:(with_id artifact) config
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Server.wait server;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () -> f server (Serve.Server.address server))

let test_server_concurrent_bit_identical () =
  let dataset = Lazy.force dataset42 in
  let artifact = artifact_of dataset in
  let model = artifact.Serve.Artifact.model in
  let n_uarchs = Ml_model.Dataset.n_uarchs dataset in
  let queries =
    Array.init 8 (fun i ->
        let p = i / n_uarchs and u = i mod n_uarchs in
        let uarch = dataset.Ml_model.Dataset.uarchs.(u) in
        let v = Sim.Xtrem.time dataset.Ml_model.Dataset.o3_runs.(p) uarch in
        (v.Sim.Pipeline.counters, uarch))
  in
  with_server artifact (fun _server address ->
      let failures = Atomic.make 0 in
      let worker ti =
        let client = Serve.Client.connect address in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close client)
          (fun () ->
            for i = 0 to Array.length queries - 1 do
              let counters, uarch = queries.((ti + i) mod Array.length queries) in
              match Serve.Client.predict client ~counters ~uarch with
              | Error _ -> Atomic.incr failures
              | Ok served ->
                (* The served setting must be bit-identical to the
                   in-process prediction for the same model. *)
                let local =
                  Ml_model.Model.predict model
                    (Ml_model.Features.raw artifact.Serve.Artifact.space
                       counters uarch)
                in
                if served.Serve.Protocol.setting <> local then
                  Atomic.incr failures
            done)
      in
      let threads = Array.init 4 (fun ti -> Thread.create worker ti) in
      Array.iter Thread.join threads;
      check Alcotest.int "no failed or divergent requests" 0
        (Atomic.get failures);
      (* Every query has been seen: a repeat must be a cache hit. *)
      let client = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          let counters, uarch = queries.(0) in
          (match Serve.Client.predict client ~counters ~uarch with
          | Ok served ->
            check Alcotest.bool "repeat served from cache" true
              served.Serve.Protocol.cached
          | Error (_, e) -> Alcotest.failf "repeat failed: %s" e);
          (* Health reflects the traffic. *)
          match Serve.Client.health client with
          | Error (_, e) -> Alcotest.failf "health failed: %s" e
          | Ok h ->
            let int_field name =
              match Option.bind (J.member name h) J.to_int with
              | Some v -> v
              | None -> Alcotest.failf "health lacks %s" name
            in
            check Alcotest.bool "served many requests" true
              (int_field "requests" >= 4 * Array.length queries);
            check Alcotest.int "nothing shed" 0 (int_field "shed");
            check Alcotest.int "nothing in flight" 0 (int_field "inflight");
            let cache = Option.get (J.member "cache" h) in
            (match Option.bind (J.member "hits" cache) J.to_int with
            | Some hits -> check Alcotest.bool "cache hits" true (hits >= 1)
            | None -> Alcotest.fail "health lacks cache.hits");
            (* Admin ops are refused without --admin. *)
            (match Serve.Client.sleep client 0.01 with
            | Error (403, _) -> ()
            | Ok _ -> Alcotest.fail "sleep accepted without --admin"
            | Error (code, e) ->
              Alcotest.failf "expected 403, got %d: %s" code e)))

(* The first [n] (program, configuration) pairs of a dataset as wire
   queries, in a fixed order shared by the batch tests. *)
let queries_of dataset n =
  let n_uarchs = Ml_model.Dataset.n_uarchs dataset in
  Array.init n (fun i ->
      let p = i / n_uarchs and u = i mod n_uarchs in
      let uarch = dataset.Ml_model.Dataset.uarchs.(u) in
      let v = Sim.Xtrem.time dataset.Ml_model.Dataset.o3_runs.(p) uarch in
      (v.Sim.Pipeline.counters, uarch))

let check_same_prediction ~msg (a : Serve.Protocol.prediction)
    (b : Serve.Protocol.prediction) =
  if a.Serve.Protocol.setting <> b.Serve.Protocol.setting then
    Alcotest.failf "%s: settings differ" msg;
  if a.Serve.Protocol.flags <> b.Serve.Protocol.flags then
    Alcotest.failf "%s: flags differ" msg;
  if a.Serve.Protocol.neighbours <> b.Serve.Protocol.neighbours then
    Alcotest.failf "%s: neighbours differ" msg

let test_server_batch_matches_singles ~jobs () =
  let dataset = Lazy.force dataset42 in
  let artifact = artifact_of dataset in
  let queries = queries_of dataset 8 in
  (* Cache off so the single-query answers are computed fresh, like the
     batch's. *)
  with_server ~jobs ~cache:0 artifact (fun _server address ->
      let client = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          let singles =
            Array.map
              (fun (counters, uarch) ->
                match Serve.Client.predict client ~counters ~uarch with
                | Ok p -> p
                | Error (_, e) -> Alcotest.failf "single predict failed: %s" e)
              queries
          in
          match Serve.Client.predict_batch client queries with
          | Error (_, e) -> Alcotest.failf "batch predict failed: %s" e
          | Ok results ->
            check Alcotest.int "one result per query" (Array.length queries)
              (Array.length results);
            Array.iteri
              (fun i p ->
                check_same_prediction
                  ~msg:(Printf.sprintf "jobs %d, query %d" jobs i)
                  singles.(i) p)
              results))

let test_server_batch_cache_hits () =
  let dataset = Lazy.force dataset42 in
  let artifact = artifact_of dataset in
  let queries = queries_of dataset 6 in
  with_server artifact (fun _server address ->
      let client = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          (* Warm exactly one query, then batch: that element must be a
             hit, the rest computed. *)
          let counters, uarch = queries.(2) in
          (match Serve.Client.predict client ~counters ~uarch with
          | Ok _ -> ()
          | Error (_, e) -> Alcotest.failf "warm-up failed: %s" e);
          (match Serve.Client.predict_batch client queries with
          | Error (_, e) -> Alcotest.failf "first batch failed: %s" e
          | Ok results ->
            Array.iteri
              (fun i p ->
                check Alcotest.bool
                  (Printf.sprintf "first batch, query %d cached flag" i)
                  (i = 2) p.Serve.Protocol.cached)
              results);
          (* Everything is cached now: a repeat batch is all hits. *)
          match Serve.Client.predict_batch client queries with
          | Error (_, e) -> Alcotest.failf "second batch failed: %s" e
          | Ok results ->
            Array.iteri
              (fun i p ->
                check Alcotest.bool
                  (Printf.sprintf "second batch, query %d cached" i)
                  true p.Serve.Protocol.cached)
              results))

let test_server_answers_equal_in_process () =
  let dataset = Lazy.force dataset42 in
  let artifact = artifact_of dataset in
  let model = artifact.Serve.Artifact.model in
  let queries = queries_of dataset 8 in
  with_server ~cache:0 artifact (fun _server address ->
      let client = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          (* Health no longer names a search engine: there is one. *)
          (match Serve.Client.health client with
          | Error (_, e) -> Alcotest.failf "health failed: %s" e
          | Ok h ->
            let m = Option.get (J.member "model" h) in
            check Alcotest.bool "health has no model.index" true
              (J.member "index" m = None);
            check Alcotest.(option int) "health counts the pairs"
              (Some (Ml_model.Model.n_points model))
              (Option.bind (J.member "pairs" m) J.to_int));
          Array.iteri
            (fun i (counters, uarch) ->
              let served =
                match Serve.Client.predict client ~counters ~uarch with
                | Ok p -> p
                | Error (_, e) -> Alcotest.failf "predict failed: %s" e
              in
              let local =
                Ml_model.Model.predict_full model
                  (Ml_model.Features.raw artifact.Serve.Artifact.space counters
                     uarch)
              in
              let msg = Printf.sprintf "query %d" i in
              check Alcotest.bool (msg ^ ": setting") true
                (served.Serve.Protocol.setting = local.Ml_model.Predict.setting);
              let pairs ns f = Array.to_list (Array.map f ns) in
              check
                Alcotest.(list (pair int (float 0.0)))
                (msg ^ ": neighbours and distances")
                (pairs local.Ml_model.Predict.neighbours (fun nb ->
                     (nb.Ml_model.Predict.index, nb.Ml_model.Predict.distance)))
                (pairs served.Serve.Protocol.neighbours (fun nb ->
                     (nb.Serve.Protocol.index, nb.Serve.Protocol.distance))))
            queries))

let test_server_bind_failure_leaks_nothing () =
  (* A server that cannot bind raises and leaves no socket behind. *)
  let artifact = with_id (artifact_of (Lazy.force dataset42)) in
  let config =
    {
      (Serve.Server.default_config (Net.Addr.Tcp ("127.0.0.1", 0))) with
      Serve.Server.jobs = 1;
    }
  in
  let server = Serve.Server.start ~artifact config in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Server.wait server)
    (fun () ->
      let taken =
        { config with Serve.Server.address = Serve.Server.address server }
      in
      let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
      let before = open_fds () in
      for _ = 1 to 5 do
        match Serve.Server.start ~artifact taken with
        | s ->
          Serve.Server.stop s;
          Serve.Server.wait s;
          Alcotest.fail "bound a port that is in use"
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
      done;
      check Alcotest.int "open fds unchanged" before (open_fds ()))

(* A raw peer: dial, run [f] on the socket, always close it. *)
let with_raw_conn address f =
  let fd = Net.Addr.connect address in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

(* One newline-JSON frame out (a failed write is left for the read to
   report), one frame back. *)
let raw_exchange address line =
  with_raw_conn address (fun fd ->
      ignore (Net.Codec.write fd Net.Codec.Json line);
      Result.map snd (Net.Codec.read (Net.Codec.reader fd)))

let test_server_rejects_non_finite_query () =
  let artifact = artifact_of (Lazy.force dataset42) in
  with_server artifact (fun _server address ->
      (* A predict request whose first counter is 1e999 — infinity once
         float_of_string gets at it.  Built by string surgery on a valid
         request because the JSON printer itself refuses to emit
         non-finite floats. *)
      let line =
        let counters =
          match Serve.Protocol.counters_to_json (some_counters ()) with
          | J.List (_ :: rest) -> J.List (J.Str "NONFINITE" :: rest)
          | _ -> Alcotest.fail "counters did not encode as a list"
        in
        let j =
          J.Obj
            [
              ("op", J.Str "predict");
              ("counters", counters);
              ("uarch", Serve.Protocol.uarch_to_json (some_uarch ()));
            ]
        in
        replace ~from:"\"NONFINITE\"" ~into:"1e999" (J.to_string j)
      in
      (match raw_exchange address line with
      | Error e -> Alcotest.failf "no reply: %s" (Net.Codec.error_to_string e)
      | Ok reply -> (
        match J.of_string reply with
        | Error e -> Alcotest.failf "unparseable reply: %s" e
        | Ok j -> (
          match Serve.Protocol.check_response j with
          | Ok _ -> Alcotest.fail "non-finite query accepted"
          | Error (code, msg) ->
            check Alcotest.int "typed 400, not a 500" 400 code;
            check_error_mentions ~msg:"names the cause" "non-finite" msg)));
      (* The connection error did not hurt the server. *)
      let client = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          match Serve.Client.health client with
          | Ok _ -> ()
          | Error (_, e) -> Alcotest.failf "server unhealthy after 400: %s" e))

(* Every reply echoes the request's id, and a request without one gets
   a reply without one; shutdown stops its server, so each id case
   gets a server of its own. *)
let test_server_echoes_request_id () =
  let artifact = artifact_of (Lazy.force dataset42) in
  let reply_id address line =
    match raw_exchange address line with
    | Error e ->
      Alcotest.failf "%s: no reply: %s" line (Net.Codec.error_to_string e)
    | Ok reply -> (
      match J.of_string reply with
      | Error e -> Alcotest.failf "%s: unparseable reply: %s" line e
      | Ok j -> J.member "id" j)
  in
  List.iter
    (fun id ->
      let field =
        match id with Some i -> Printf.sprintf ",\"id\":%d" i | None -> ""
      in
      with_server ~admin:true artifact (fun _server address ->
          List.iter
            (fun op ->
              let line = Printf.sprintf "{\"op\":\"%s\"%s}" op field in
              check Alcotest.bool line true
                (reply_id address line = Option.map (fun i -> J.Int i) id))
            [ "health"; "metrics"; "shutdown" ]))
    [ Some 7; None ]

let test_server_tcp_ephemeral_port () =
  let artifact = artifact_of (Lazy.force dataset42) in
  let config =
    {
      (Serve.Server.default_config (Net.Addr.Tcp ("127.0.0.1", 0))) with
      Serve.Server.jobs = 1;
    }
  in
  let server = Serve.Server.start ~artifact:(with_id artifact) config in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Server.wait server)
    (fun () ->
      let address = Serve.Server.address server in
      (match address with
      | Net.Addr.Tcp (_, port) ->
        check Alcotest.bool "kernel assigned a real port" true (port > 0)
      | _ -> Alcotest.fail "expected a TCP address");
      let client = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          match Serve.Client.health client with
          | Ok _ -> ()
          | Error (_, e) -> Alcotest.failf "health over TCP failed: %s" e))

let test_server_survives_garbage_and_oversized () =
  (* A client that violates the protocol gets a clean error (or a
     dropped connection for an oversized line) and the server keeps
     serving everyone else. *)
  let artifact = artifact_of (Lazy.force dataset42) in
  with_server artifact (fun _server address ->
      (match raw_exchange address "this is not json" with
      | Ok reply ->
        (match J.of_string reply with
        | Ok j -> (
          match Option.bind (J.member "code" j) J.to_int with
          | Some code ->
            check Alcotest.bool "4xx error" true (code >= 400 && code < 500)
          | None -> Alcotest.fail "error reply lacks code")
        | Error e -> Alcotest.failf "unparseable error reply: %s" e)
      | Error e ->
        Alcotest.failf "no reply to garbage: %s" (Net.Codec.error_to_string e));
      (* An oversized line: the server must not die.  It may answer or
         just drop the connection; either way the next client works. *)
      ignore
        (raw_exchange address
           (String.make (Net.Codec.default_max_frame + 64) 'j'));
      let client = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          match Serve.Client.health client with
          | Ok _ -> ()
          | Error (_, e) ->
            Alcotest.failf "server died after protocol abuse: %s" e))

let test_server_wire_interop () =
  (* One listener, both framings: a JSON-wire client and a binary-wire
     client get bit-identical answers, and a raw newline-JSON peer gets
     newline-JSON back — never a binary header. *)
  let artifact = artifact_of (Lazy.force dataset42) in
  with_server artifact (fun _server address ->
      let counters = some_counters () and uarch = some_uarch () in
      let via wire =
        let c = Serve.Client.connect ~wire address in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match Serve.Client.predict c ~counters ~uarch with
            | Ok r -> r.Serve.Protocol.setting
            | Error (code, e) ->
              Alcotest.failf "predict over %s: %d %s"
                (Net.Codec.mode_to_string wire) code e)
      in
      check Alcotest.bool "wire format does not change the answer" true
        (via Net.Codec.Json = via Net.Codec.Binary);
      with_raw_conn address (fun fd ->
          (match
             Net.Codec.write fd Net.Codec.Json
               (J.to_string (J.Obj [ ("op", J.Str "health") ]))
           with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "raw write: %s" (Net.Codec.error_to_string e));
          match Net.Codec.read (Net.Codec.reader fd) with
          | Ok (Net.Codec.Json, reply) -> (
            match J.of_string reply with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "unparseable json reply: %s" e)
          | Ok (Net.Codec.Binary, _) ->
            Alcotest.fail "json-only client got a binary reply"
          | Error e ->
            Alcotest.failf "raw read: %s" (Net.Codec.error_to_string e)))

let test_server_hostile_binary_header () =
  (* A garbage binary length prefix against a live server: the
     connection is dropped with a best-effort 400 farewell and the
     server keeps serving everyone else. *)
  let artifact = artifact_of (Lazy.force dataset42) in
  with_server artifact (fun _server address ->
      let hostile bytes =
        with_raw_conn address (fun fd ->
            (try ignore (Unix.write_substring fd bytes 0 (String.length bytes))
             with Unix.Unix_error _ -> ());
            (* Half-close so a mid-frame stall is an EOF, not a client
               still promising bytes. *)
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            (* Whatever happens — a 400 farewell or a straight drop — the
               connection must reach EOF rather than hang. *)
            let reader = Net.Codec.reader fd in
            let deadline = Unix.gettimeofday () +. 5.0 in
            let rec drain () =
              if Unix.gettimeofday () > deadline then
                Alcotest.fail "hostile connection not closed"
              else
                match Net.Codec.poll reader ~timeout:0.25 with
                | Ok None -> drain ()
                | Ok (Some _) -> drain ()
                | Error _ -> ()
            in
            drain ())
      in
      let prefix declared =
        let b = Bytes.create Net.Codec.header_len in
        Bytes.set b 0 Net.Codec.magic;
        Bytes.set_int32_be b 1 (Int32.of_int declared);
        Bytes.to_string b
      in
      hostile (prefix 0);
      hostile (prefix (-1));
      hostile (prefix (Net.Codec.default_max_frame + 1));
      (* Truncated header then EOF. *)
      hostile (String.make 1 Net.Codec.magic ^ "\x00");
      let client = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          match Serve.Client.health client with
          | Ok _ -> ()
          | Error (_, e) ->
            Alcotest.failf "server died after hostile headers: %s" e))

let test_server_sheds_load () =
  let artifact = artifact_of (Lazy.force dataset42) in
  (* One worker, no queue: while a sleep occupies the slot, any predict
     must be shed with a 429. *)
  with_server ~jobs:1 ~queue:0 ~cache:0 ~admin:true artifact
    (fun _server address ->
      let sleeper =
        Thread.create
          (fun () ->
            let c = Serve.Client.connect address in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () -> ignore (Serve.Client.sleep c 0.6)))
          ()
      in
      Thread.delay 0.2;
      let counters = some_counters () and uarch = some_uarch () in
      let client = Serve.Client.connect address in
      let shed_code =
        Fun.protect
          ~finally:(fun () -> Serve.Client.close client)
          (fun () ->
            match Serve.Client.predict client ~counters ~uarch with
            | Error (code, _) -> code
            | Ok _ -> 0)
      in
      Thread.join sleeper;
      check Alcotest.int "predict shed with 429" 429 shed_code;
      (* Health still answers (it bypasses admission) and counts it. *)
      let c = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.health c with
          | Error (_, e) -> Alcotest.failf "health failed: %s" e
          | Ok h -> (
            match Option.bind (J.member "shed" h) J.to_int with
            | Some shed -> check Alcotest.bool "shed counted" true (shed >= 1)
            | None -> Alcotest.fail "health lacks shed")))

let test_client_retries_429_until_capacity () =
  let artifact = artifact_of (Lazy.force dataset42) in
  (* Saturate the single slot, then predict with a retry budget that
     outlives the sleeper: the client must absorb the 429s and land the
     request once capacity frees up. *)
  with_server ~jobs:1 ~queue:0 ~cache:0 ~admin:true artifact
    (fun _server address ->
      let sleeper =
        Thread.create
          (fun () ->
            let c = Serve.Client.connect address in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () -> ignore (Serve.Client.sleep c 0.6)))
          ()
      in
      Thread.delay 0.2;
      let counters = some_counters () and uarch = some_uarch () in
      let client = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close client;
          Thread.join sleeper)
        (fun () ->
          (* Without a budget the saturated server sheds immediately. *)
          (match Serve.Client.predict client ~counters ~uarch with
          | Error (429, _) -> ()
          | Ok _ -> Alcotest.fail "expected an immediate 429"
          | Error (code, e) -> Alcotest.failf "expected 429, got %d: %s" code e);
          let backoff =
            {
              Prelude.Backoff.base_s = 0.05;
              factor = 2.0;
              max_s = 0.4;
              jitter = 0.1;
              max_retries = 8;
            }
          in
          match Serve.Client.predict ~backoff client ~counters ~uarch with
          | Ok _ -> ()
          | Error (code, e) ->
            Alcotest.failf "retries never landed: %d %s" code e))

let test_server_metrics_op () =
  let artifact = artifact_of (Lazy.force dataset42) in
  with_server artifact (fun _server address ->
      let client = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          let counters, uarch = (some_counters (), some_uarch ()) in
          for _ = 1 to 3 do
            match Serve.Client.predict client ~counters ~uarch with
            | Ok _ -> ()
            | Error (_, e) -> Alcotest.failf "predict failed: %s" e
          done;
          match Serve.Client.metrics client with
          | Error (_, e) -> Alcotest.failf "metrics op failed: %s" e
          | Ok m ->
            (* The registry is process-wide, so absolute values include
               other tests — only floors are stable. *)
            let counter name =
              Option.value ~default:0
                (Option.bind (J.member "counters" m) (fun c ->
                     Option.bind (J.member name c) J.to_int))
            in
            check Alcotest.bool "requests counted" true
              (counter "serve.requests" >= 4);
            (* Repeats hit the cache, which does not predict. *)
            check Alcotest.bool "predictions counted" true
              (counter "serve.predictions" >= 1);
            let h =
              Option.bind (J.member "histograms" m)
                (J.member "serve.request.seconds")
            in
            (match h with
            | None -> Alcotest.fail "metrics lack serve.request.seconds"
            | Some h ->
              (* The metrics reply is built before its own request's
                 latency lands, so only the predicts are guaranteed. *)
              check Alcotest.bool "latency histogram populated" true
                (Option.value ~default:0
                   (Option.bind (J.member "count" h) J.to_int)
                >= 3);
              check
                Alcotest.(option string)
                "bucket scheme declared" (Some Obs.Metrics.scheme)
                (Option.bind (J.member "scheme" h) J.to_str);
              match Obs.Metrics.quantile_of_json h 0.99 with
              | Some p99 -> check Alcotest.bool "p99 positive" true (p99 > 0.0)
              | None -> Alcotest.fail "latency histogram lost its buckets");
            (* The same snapshot scrapes as Prometheus text. *)
            let body = Obs.Prom.render m in
            check_error_mentions ~msg:"prom histogram"
              "serve_request_seconds_bucket{le=\"+Inf\"}" body;
            check_error_mentions ~msg:"prom quantile"
              "serve_request_seconds_quantile{quantile=\"0.99\"}" body))

(* A histogram's JSON snapshot holding [samples], as the metrics op
   reports it. *)
let hist samples =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let i = Obs.Metrics.bucket_index s in
      Hashtbl.replace counts i
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts i)))
    samples;
  let buckets =
    List.map
      (fun (i, c) -> J.List [ J.Int i; J.Int c ])
      (List.sort compare (Hashtbl.fold (fun i c acc -> (i, c) :: acc) counts []))
  in
  J.Obj
    [
      ("count", J.Int (List.length samples));
      ("sum", J.Float (List.fold_left ( +. ) 0.0 samples));
      ("min", J.Float (List.fold_left Float.min Float.infinity samples));
      ("max", J.Float (List.fold_left Float.max 0.0 samples));
      ("scheme", J.Str Obs.Metrics.scheme);
      ("buckets", J.List buckets);
    ]

let test_top_render_synthetic () =
  let health ~requests ~shed ~hits ~misses =
    J.Obj
      [
        ("uptime_s", J.Float 12.5); ("requests", J.Int requests);
        ("shed", J.Int shed); ("errors", J.Int 0); ("inflight", J.Int 1);
        ("queue_depth", J.Int 2); ("jobs", J.Int 2); ("queue_limit", J.Int 64);
        ("cache",
         J.Obj
           [
             ("hits", J.Int hits); ("misses", J.Int misses);
             ("size", J.Int 4); ("capacity", J.Int 512);
           ]);
      ]
  in
  let metrics samples =
    J.Obj
      [
        ("counters", J.Obj [ ("serve.predictions", J.Int 40) ]);
        ("gauges", J.Obj []);
        ("histograms", J.Obj [ ("serve.request.seconds", hist samples) ]);
      ]
  in
  let s0 =
    {
      Serve.Top.at = 100.0;
      health = health ~requests:50 ~shed:0 ~hits:10 ~misses:30;
      metrics = metrics [ 0.001; 0.002 ];
    }
  in
  let s1 =
    {
      Serve.Top.at = 102.0;
      health = health ~requests:70 ~shed:2 ~hits:20 ~misses:40;
      metrics = metrics [ 0.001; 0.002; 0.05; 0.05; 0.05 ];
    }
  in
  let first = Serve.Top.render s0 ~address:"127.0.0.1:7979" in
  check_error_mentions ~msg:"address shown" "127.0.0.1:7979" first;
  check_error_mentions ~msg:"first sample has no window" "(first sample)"
    first;
  check_error_mentions ~msg:"lifetime quantiles" "(lifetime)" first;
  let second = Serve.Top.render ~prev:s0 s1 ~address:"127.0.0.1:7979" in
  (* 20 more requests over the 2 s window. *)
  check_error_mentions ~msg:"request rate" "10.0 req/s" second;
  check_error_mentions ~msg:"shed rate" "1.0 shed/s" second;
  check_error_mentions ~msg:"totals line" "requests 70" second;
  check_error_mentions ~msg:"cache hit rate" "33.3%" second;
  check_error_mentions ~msg:"queue depth" "depth 2" second;
  check_error_mentions ~msg:"window quantiles" "(window)" second;
  (* The window saw only the three 50 ms samples: its p50 must land in
     their bucket (~52 ms upper bound), far from the lifetime median. *)
  let window_line =
    List.find (fun l -> contains ~needle:"(window)" l)
      (String.split_on_char '\n' second)
  in
  (* Exact bucket arithmetic: the delta envelope clamps the bucket's
     upper bound back to the window's 50 ms max. *)
  check_error_mentions ~msg:"window median is the 50ms mode" "p50   50.000ms"
    window_line

(* ---- promotion gate ----------------------------------------------------- *)

(* One sample of an A/B server: stable version "aaaa" with 100 requests
   at [stable_s] seconds each, and a candidate arm (unless [candidate]
   is [None]) with [requests] requests at [candidate_s] seconds each. *)
let ab_sample ?(candidate = Some "bbbb") ~requests ~stable_s ~candidate_s () =
  let samples n s = if s = 0.0 then [] else List.init n (fun _ -> s) in
  let health =
    J.Obj
      (("model", J.Obj [ ("version", J.Str "aaaa") ])
       ::
       (match candidate with
       | None -> []
       | Some v ->
         [
           ( "ab",
             J.Obj
               [
                 ("split", J.Float 0.5);
                 ("candidate", J.Obj [ ("version", J.Str v) ]);
               ] );
         ]))
  in
  let metrics =
    J.Obj
      [
        ( "counters",
          J.Obj
            [
              ("serve.ab.stable.requests", J.Int 100);
              ("serve.ab.candidate.requests", J.Int requests);
            ] );
        ( "histograms",
          J.Obj
            [
              ("serve.ab.stable.seconds", hist (samples 100 stable_s));
              ( "serve.ab.candidate.seconds",
                hist (samples requests candidate_s) );
            ] );
      ]
  in
  { Serve.Top.at = 0.0; health; metrics }

let promote ?(force = false) sample =
  match
    Serve.Top.promotion ~min_requests:20 ~max_regression:0.1 ~force sample
  with
  | Ok p -> p
  | Error e -> Alcotest.failf "the sample cannot be judged: %s" e

let check_verdict ~msg expected (p : Serve.Top.promotion) =
  check Alcotest.(result unit string) msg expected p.verdict

let test_promotion_same_version () =
  let s =
    ab_sample ~candidate:(Some "aaaa") ~requests:50 ~stable_s:0.01
      ~candidate_s:0.01 ()
  in
  let refused = Error "candidate is already the stable version" in
  check_verdict ~msg:"refused" refused (promote s);
  check_verdict ~msg:"force does not override" refused (promote ~force:true s)

let test_promotion_too_few_requests () =
  let s = ab_sample ~requests:19 ~stable_s:0.01 ~candidate_s:0.01 () in
  let p = promote s in
  check Alcotest.int "candidate requests" 19 p.candidate.requests;
  check Alcotest.int "stable requests" 100 p.stable.requests;
  check_verdict ~msg:"refused"
    (Error "candidate served 19 requests, need 20 (or --force)")
    p;
  check_verdict ~msg:"force overrides" (Ok ()) (promote ~force:true s)

let test_promotion_no_latency_samples () =
  let s = ab_sample ~requests:50 ~stable_s:0.01 ~candidate_s:0.0 () in
  let p = promote s in
  check Alcotest.(option (float 0.0)) "no candidate p99" None p.candidate.p99;
  check_verdict ~msg:"refused"
    (Error "candidate arm has no latency samples (or --force)")
    p;
  check_verdict ~msg:"force overrides" (Ok ()) (promote ~force:true s)

let test_promotion_p99_regression () =
  let s = ab_sample ~requests:50 ~stable_s:0.01 ~candidate_s:0.02 () in
  let p = promote s in
  (* Every sample of an arm is equal, so its p99 is that sample. *)
  check Alcotest.(option (float 0.0)) "stable p99" (Some 0.01) p.stable.p99;
  check Alcotest.(option (float 0.0)) "candidate p99" (Some 0.02)
    p.candidate.p99;
  check_verdict ~msg:"refused"
    (Error
       "candidate p99 regresses 100.0% over stable (budget 10.0%; --force \
        overrides)")
    p;
  check_verdict ~msg:"force overrides" (Ok ()) (promote ~force:true s)

let test_promotion_passes () =
  let s = ab_sample ~requests:20 ~stable_s:0.02 ~candidate_s:0.01 () in
  let p = promote s in
  check Alcotest.string "stable version" "aaaa" p.stable.version;
  check Alcotest.string "candidate version" "bbbb" p.candidate.version;
  check_verdict ~msg:"passes" (Ok ()) p;
  (* A sample without a candidate arm, or without a model version,
     cannot be judged at all. *)
  let unjudged s =
    match
      Serve.Top.promotion ~min_requests:20 ~max_regression:0.1 ~force:true s
    with
    | Ok _ -> None
    | Error e -> Some e
  in
  check Alcotest.(option string) "no candidate arm"
    (Some "server has no candidate arm (serve --registry --ab)")
    (unjudged
       (ab_sample ~candidate:None ~requests:20 ~stable_s:0.02 ~candidate_s:0.01
          ()));
  check Alcotest.(option string) "no model version"
    (Some "health report carries no model version")
    (unjudged { s with health = J.Obj [] })

let test_server_graceful_drain () =
  let artifact = artifact_of (Lazy.force dataset42) in
  let socket = tmp_path "drain.sock" in
  let config =
    {
      Serve.Server.address = Net.Addr.Unix_path socket;
      jobs = 1;
      queue = 4;
      cache_capacity = 0;
      admin = true;
      split = 0.0;
      source = None;
      watch = None;
    }
  in
  let server = Serve.Server.start ~artifact:(with_id artifact) config in
  let address = Serve.Server.address server in
  let in_flight_ok = Atomic.make false in
  let sleeper =
    Thread.create
      (fun () ->
        let c = Serve.Client.connect address in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match Serve.Client.sleep c 0.5 with
            | Ok _ -> Atomic.set in_flight_ok true
            | Error _ -> ()))
      ()
  in
  Thread.delay 0.15;
  (* Stop while the sleep is in flight: it must still be answered. *)
  Serve.Server.stop server;
  Serve.Server.wait server;
  Thread.join sleeper;
  check Alcotest.bool "in-flight request answered during drain" true
    (Atomic.get in_flight_ok);
  (* The listener is gone: new connections must fail. *)
  (match Serve.Client.connect address with
  | exception Unix.Unix_error _ -> ()
  | c ->
    Serve.Client.close c;
    Alcotest.fail "connect succeeded after drain");
  if Sys.file_exists socket then Alcotest.fail "socket file not cleaned up"

(* ---- hot swap, A/B routing, reload ------------------------------------- *)

let bool_field name j =
  match J.member name j with
  | Some (J.Bool b) -> b
  | _ -> Alcotest.failf "response lacks boolean %s" name

let health_model_version h =
  match Option.bind (J.member "model" h) (fun m -> J.member "version" m) with
  | Some (J.Str v) -> v
  | _ -> Alcotest.fail "health lacks model.version"

let client_health_version address =
  let c = Serve.Client.connect address in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      match Serve.Client.health c with
      | Ok h -> health_model_version h
      | Error (_, e) -> Alcotest.failf "health failed: %s" e)

let test_server_swap_under_load () =
  let d42 = Lazy.force dataset42 and d43 = Lazy.force dataset43 in
  let a = artifact_of d42 and b = artifact_of d43 in
  let va = Serve.Artifact.version_id a and vb = Serve.Artifact.version_id b in
  let model_a = a.Serve.Artifact.model and model_b = b.Serve.Artifact.model in
  let queries = queries_of d42 6 in
  with_server ~jobs:4 a (fun server address ->
      let failures = Atomic.make 0 in
      let answered = Atomic.make 0 in
      let stop_swapping = Atomic.make false in
      (* Local ground truth per model: a response is valid iff its
         setting is bit-identical to the prediction of the model named
         by its own [model] tag — a torn read (old model, new tag, or a
         half-swapped batch) cannot satisfy this. *)
      let expected model (counters, uarch) =
        Ml_model.Model.predict model
          (Ml_model.Features.raw a.Serve.Artifact.space counters uarch)
      in
      let worker () =
        let client = Serve.Client.connect address in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close client)
          (fun () ->
            for _ = 1 to 25 do
              match Serve.Client.predict_batch client queries with
              | Error _ -> Atomic.incr failures
              | Ok preds ->
                Atomic.incr answered;
                (* One routing snapshot per batch: every response in it
                   must name the same model. *)
                let tag =
                  match preds.(0).Serve.Protocol.model with
                  | Some v -> v
                  | None -> ""
                in
                Array.iteri
                  (fun i p ->
                    let ok =
                      p.Serve.Protocol.model = Some tag
                      &&
                      if tag = va then
                        p.Serve.Protocol.setting = expected model_a queries.(i)
                      else if tag = vb then
                        p.Serve.Protocol.setting = expected model_b queries.(i)
                      else false
                    in
                    if not ok then Atomic.incr failures)
                  preds
            done)
      in
      let swapper =
        Thread.create
          (fun () ->
            let flip = ref true in
            while not (Atomic.get stop_swapping) do
              let stable = if !flip then (vb, b) else (va, a) in
              flip := not !flip;
              Serve.Server.install server ~stable ~candidate:None;
              Thread.delay 0.005
            done)
          ()
      in
      let threads = Array.init 4 (fun _ -> Thread.create worker ()) in
      Array.iter Thread.join threads;
      Atomic.set stop_swapping true;
      Thread.join swapper;
      check Alcotest.int "zero dropped, failed or torn responses" 0
        (Atomic.get failures);
      check Alcotest.int "every batch answered" 100 (Atomic.get answered))

let test_server_reload_op () =
  let a = artifact_of (Lazy.force dataset42) in
  let b = artifact_of (Lazy.force dataset43) in
  let vb = Serve.Artifact.version_id b in
  let next = ref Serve.Server.Unchanged in
  let source () = Ok !next in
  (* Admin-gated: a non-admin server refuses even with a source. *)
  with_server ~source a (fun _server address ->
      let c = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.reload c with
          | Error (403, _) -> ()
          | Ok _ -> Alcotest.fail "reload accepted without --admin"
          | Error (code, e) ->
            Alcotest.failf "expected 403, got %d: %s" code e));
  (* No source: the fixed-artifact server cannot reload. *)
  with_server ~admin:true a (fun _server address ->
      let c = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.reload c with
          | Error (400, e) ->
            check_error_mentions ~msg:"400 names the fix" "--registry" e
          | Ok _ -> Alcotest.fail "reload accepted without a source"
          | Error (code, e) ->
            Alcotest.failf "expected 400, got %d: %s" code e));
  (* The real path: Unchanged is a no-op, a Swap takes effect live. *)
  next := Serve.Server.Unchanged;
  with_server ~admin:true ~source a (fun _server address ->
      let c = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          (match Serve.Client.reload c with
          | Ok r -> check Alcotest.bool "unchanged source" false
              (bool_field "changed" r)
          | Error (_, e) -> Alcotest.failf "reload failed: %s" e);
          next := Serve.Server.Swap { stable = with_id b; candidate = None };
          (match Serve.Client.reload c with
          | Ok r ->
            check Alcotest.bool "swap reported" true (bool_field "changed" r);
            (match J.member "model" r with
            | Some (J.Str v) -> check Alcotest.string "new version" vb v
            | _ -> Alcotest.fail "reload reply lacks model")
          | Error (_, e) -> Alcotest.failf "reload failed: %s" e);
          (* Same artifact again: effective no-op, reported as such. *)
          (match Serve.Client.reload c with
          | Ok r -> check Alcotest.bool "idempotent swap" false
              (bool_field "changed" r)
          | Error (_, e) -> Alcotest.failf "reload failed: %s" e);
          check Alcotest.string "health serves the new version" vb
            (client_health_version address);
          (* Fresh predictions are pinned to the new model. *)
          let counters, uarch = (some_counters (), some_uarch ()) in
          match Serve.Client.predict c ~counters ~uarch with
          | Ok p ->
            check Alcotest.(option string) "prediction tagged" (Some vb)
              p.Serve.Protocol.model
          | Error (_, e) -> Alcotest.failf "predict failed: %s" e))

let test_server_ab_deterministic () =
  let d42 = Lazy.force dataset42 in
  let a = artifact_of d42 and b = artifact_of (Lazy.force dataset43) in
  let va = Serve.Artifact.version_id a and vb = Serve.Artifact.version_id b in
  let queries = queries_of d42 8 in
  let arms_of address =
    let c = Serve.Client.connect address in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        Array.map
          (fun (counters, uarch) ->
            match Serve.Client.predict c ~counters ~uarch with
            | Error (_, e) -> Alcotest.failf "predict failed: %s" e
            | Ok p ->
              let arm = Option.get p.Serve.Protocol.arm in
              let model = Option.get p.Serve.Protocol.model in
              check Alcotest.string "model tag matches the arm"
                (if arm = "candidate" then vb else va)
                model;
              arm)
          queries)
  in
  let first =
    with_server ~candidate:b ~split:0.5 a (fun _server address ->
        let one = arms_of address in
        let two = arms_of address in
        check Alcotest.(array string) "assignment is stable across repeats"
          one two;
        one)
  in
  (* A fresh server with the same split routes every key identically:
     assignment hashes the query, not server state. *)
  let second =
    with_server ~candidate:b ~split:0.5 a (fun _server address ->
        arms_of address)
  in
  check Alcotest.(array string) "assignment survives a restart" first second;
  check Alcotest.bool "a 50% split uses both arms" true
    (Array.exists (fun a -> a = "stable") first
    && Array.exists (fun a -> a = "candidate") first);
  (* Degenerate splits pin every query to one arm. *)
  let all label arms = Array.for_all (fun a -> a = label) arms in
  with_server ~candidate:b ~split:0.0 a (fun _server address ->
      check Alcotest.bool "split 0 -> all stable" true
        (all "stable" (arms_of address)));
  with_server ~candidate:b ~split:1.0 a (fun _server address ->
      check Alcotest.bool "split 1 -> all candidate" true
        (all "candidate" (arms_of address)));
  (* The bucket function itself is total and bounded. *)
  List.iter
    (fun key ->
      let bucket = Serve.Server.ab_bucket key in
      check Alcotest.bool "bucket in [0, 10000)" true
        (bucket >= 0 && bucket < 10_000);
      check Alcotest.int "bucket is deterministic" bucket
        (Serve.Server.ab_bucket key))
    [ ""; "x"; "1.5,2.5@cache"; String.make 300 'q' ]

let test_server_health_reports_version () =
  let d42 = Lazy.force dataset42 in
  let artifact =
    {
      (artifact_of d42) with
      Serve.Artifact.meta =
        [
          ("seed", J.Int 42);
          ("programs_digest", J.Str "fnv1a64:deadbeef");
          ("store", J.Str "results/store");
        ];
    }
  in
  let version = Serve.Artifact.version_id artifact in
  with_server artifact (fun _server address ->
      let c = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.health c with
          | Error (_, e) -> Alcotest.failf "health failed: %s" e
          | Ok h ->
            let model = Option.get (J.member "model" h) in
            check Alcotest.string "content-addressed version" version
              (health_model_version h);
            (match Option.bind (J.member "checksum" model) J.to_str with
            | Some c ->
              check Alcotest.string "checksum algorithm named"
                ("fnv1a64:" ^ version) c
            | None -> Alcotest.fail "health lacks model.checksum");
            (* Provenance surfaces the artifact's data lineage — and
               only that: parameters like the seed stay in meta. *)
            let prov = Option.get (J.member "provenance" model) in
            check
              Alcotest.(option string)
              "programs digest surfaced" (Some "fnv1a64:deadbeef")
              (Option.bind (J.member "programs_digest" prov) J.to_str);
            check
              Alcotest.(option string)
              "store surfaced" (Some "results/store")
              (Option.bind (J.member "store" prov) J.to_str);
            check Alcotest.bool "seed is not provenance" true
              (J.member "seed" prov = None);
            (match Option.bind (J.member "reloads" h) J.to_int with
            | Some n -> check Alcotest.int "no reloads yet" 0 n
            | None -> Alcotest.fail "health lacks reloads");
            check Alcotest.bool "no A/B block without a candidate" true
              (match J.member "ab" h with
              | None | Some J.Null -> true
              | Some _ -> false)))

let test_client_reconnects_idempotent_ops () =
  let artifact = artifact_of (Lazy.force dataset42) in
  let socket = tmp_path "reconnect.sock" in
  let config =
    {
      Serve.Server.address = Net.Addr.Unix_path socket;
      jobs = 1;
      queue = 4;
      cache_capacity = 16;
      admin = false;
      split = 0.0;
      source = None;
      watch = None;
    }
  in
  let server1 = Serve.Server.start ~artifact:(with_id artifact) config in
  let client = Serve.Client.connect (Serve.Server.address server1) in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close client)
    (fun () ->
      (match Serve.Client.health client with
      | Ok _ -> ()
      | Error (_, e) -> Alcotest.failf "first health failed: %s" e);
      (* Kill the server the client is attached to, then bring a new
         one up on the same address: the client's next idempotent op
         hits a dead socket and must transparently reconnect. *)
      Serve.Server.stop server1;
      Serve.Server.wait server1;
      let server2 = Serve.Server.start ~artifact:(with_id artifact) config in
      Fun.protect
        ~finally:(fun () ->
          Serve.Server.stop server2;
          Serve.Server.wait server2;
          if Sys.file_exists socket then Sys.remove socket)
        (fun () ->
          (match Serve.Client.health client with
          | Ok _ -> ()
          | Error (_, e) ->
            Alcotest.failf "health did not survive the restart: %s" e);
          let counters, uarch = (some_counters (), some_uarch ()) in
          match Serve.Client.predict client ~counters ~uarch with
          | Ok _ -> ()
          | Error (_, e) ->
            Alcotest.failf "predict did not survive the restart: %s" e))

let test_server_watch_swaps_in_background () =
  let a = artifact_of (Lazy.force dataset42) in
  let b = artifact_of (Lazy.force dataset43) in
  let vb = Serve.Artifact.version_id b in
  let next = ref Serve.Server.Unchanged in
  let source () = Ok !next in
  with_server ~source ~watch:0.05 a (fun _server address ->
      check Alcotest.string "starts on the fixed artifact"
        (Serve.Artifact.version_id a)
        (client_health_version address);
      next := Serve.Server.Swap { stable = with_id b; candidate = None };
      (* The watch thread must pick the swap up on its own. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec await () =
        if client_health_version address = vb then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "watch thread never installed the new version"
        else begin
          Thread.delay 0.05;
          await ()
        end
      in
      await ())

(* A batch routes each query as a single predict would, counts each
   arm's queries once, and writes a [serve.ab] event only for an arm
   that answered at least one of them. *)
let test_server_batch_ab_per_arm () =
  let d42 = Lazy.force dataset42 in
  let a = artifact_of d42 and b = artifact_of (Lazy.force dataset43) in
  let queries = queries_of d42 8 in
  let ab_requests arm =
    Obs.Metrics.value
      (Obs.Metrics.counter (Printf.sprintf "serve.ab.%s.requests" arm))
  in
  let batch c =
    match Serve.Client.predict_batch c queries with
    | Ok results -> results
    | Error (_, e) -> Alcotest.failf "batch failed: %s" e
  in
  with_server ~candidate:b ~split:0.5 a (fun _server address ->
      let c = Serve.Client.connect address in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let singles =
            Array.map
              (fun (counters, uarch) ->
                match Serve.Client.predict c ~counters ~uarch with
                | Ok p -> p
                | Error (_, e) -> Alcotest.failf "predict failed: %s" e)
              queries
          in
          let stable0 = ab_requests "stable"
          and candidate0 = ab_requests "candidate" in
          let results = batch c in
          let stable1 = ab_requests "stable"
          and candidate1 = ab_requests "candidate" in
          Array.iteri
            (fun i (p : Serve.Protocol.prediction) ->
              let msg = Printf.sprintf "query %d" i in
              check Alcotest.(option string) (msg ^ ": arm")
                singles.(i).Serve.Protocol.arm p.Serve.Protocol.arm;
              check Alcotest.(option string) (msg ^ ": model")
                singles.(i).Serve.Protocol.model p.Serve.Protocol.model)
            results;
          let answered arm =
            Array.fold_left
              (fun n p -> if p.Serve.Protocol.arm = Some arm then n + 1 else n)
              0 results
          in
          check Alcotest.bool "both arms answer at split 0.5" true
            (answered "stable" > 0 && answered "candidate" > 0);
          check Alcotest.int "stable requests advance by its queries"
            (answered "stable") (stable1 - stable0);
          check Alcotest.int "candidate requests advance by its queries"
            (answered "candidate") (candidate1 - candidate0)));
  let path = tmp_path "ab_events.jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      with_server ~candidate:b ~split:1.0 a (fun _server address ->
          let c = Serve.Client.connect address in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              Obs.Trace.start path;
              Fun.protect ~finally:Obs.Trace.stop (fun () ->
                  ignore (batch c))));
      let events =
        match Obs.Trace.read_file path with
        | Ok events -> events
        | Error e -> Alcotest.failf "trace unreadable: %s" e
      in
      let ab_arms =
        List.filter_map
          (fun r ->
            if J.member "name" r = Some (J.Str "serve.ab") then
              Option.bind (J.member "arm" r) J.to_str
            else None)
          events
      in
      check Alcotest.(list string) "one serve.ab event, for the candidate"
        [ "candidate" ] ab_arms)

(* A loaded model shares its distribution rows as the trained one does:
   rows with equal bits are one array, distributions made of the same
   rows are one distribution, and the two are laid out alike.  The
   load's [artifact.stages] event counts what it shared. *)
let test_artifact_shares_rows () =
  let artifact = artifact_of (Lazy.force dataset42) in
  let path = tmp_path "shared.pcm" and trace = tmp_path "shared.jsonl" in
  Serve.Artifact.save ~path artifact;
  Obs.Trace.start trace;
  let loaded =
    Fun.protect ~finally:Obs.Trace.stop (fun () -> snd (read_ok path))
  in
  Sys.remove path;
  let distributions a =
    (Ml_model.Model.export a.Serve.Artifact.model)
      .Ml_model.Model.r_distributions
  in
  let ds = distributions loaded in
  let key row =
    String.concat ","
      (Array.to_list
         (Array.map (fun x -> Int64.to_string (Int64.bits_of_float x)) row))
  in
  let rows = Hashtbl.create 64 and whole = Hashtbl.create 64 in
  let n_rows = ref 0 in
  Array.iter
    (fun g ->
      let keys =
        Array.map
          (fun row ->
            incr n_rows;
            let k = key row in
            (match Hashtbl.find_opt rows k with
            | None -> Hashtbl.add rows k row
            | Some r ->
              if r != row then Alcotest.failf "rows [%s] are two arrays" k);
            k)
          g
      in
      let k = String.concat ";" (Array.to_list keys) in
      match Hashtbl.find_opt whole k with
      | None -> Hashtbl.add whole k g
      | Some g' ->
        if g' != g then
          Alcotest.fail "distributions of the same rows are two arrays")
    ds;
  check Alcotest.bool "rows repeat" true (Hashtbl.length rows < !n_rows);
  check Alcotest.int "reachable words, as the trained model's"
    (Obj.reachable_words (Obj.repr (distributions artifact)))
    (Obj.reachable_words (Obj.repr ds));
  let events =
    match Obs.Trace.read_file trace with
    | Ok events -> events
    | Error e -> Alcotest.failf "trace unreadable: %s" e
  in
  Sys.remove trace;
  let stages =
    match
      List.find_opt
        (fun r -> J.member "name" r = Some (J.Str "artifact.stages"))
        events
    with
    | Some r -> r
    | None -> Alcotest.fail "no artifact.stages event"
  in
  List.iter
    (fun (name, expected) ->
      check Alcotest.(option int) name (Some expected)
        (Option.bind (J.member name stages) J.to_int))
    [
      ("rows", !n_rows);
      ("distinct_rows", Hashtbl.length rows);
      ("distributions", Array.length ds);
      ("distinct_distributions", Hashtbl.length whole);
    ]

let () =
  Alcotest.run "serve"
    [
      ( "pool-async",
        [
          Alcotest.test_case "submit runs tasks" `Quick
            test_pool_submit_runs_tasks;
          Alcotest.test_case "submit is asynchronous at jobs 1" `Quick
            test_pool_submit_async_when_sequential;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "round-trip is bit-identical (seeds 42/43)"
            `Slow test_artifact_roundtrip_bit_identical;
          Alcotest.test_case "load is >=100x faster than retraining" `Slow
            test_artifact_load_is_fast;
          Alcotest.test_case "rejects corruption" `Slow
            test_artifact_rejects_corruption;
          Alcotest.test_case "saves a frozen index (version 2)" `Slow
            test_artifact_saves_frozen_index;
          Alcotest.test_case "loads version 1, rebuilds the index" `Slow
            test_artifact_v1_loads_and_rebuilds_index;
          Alcotest.test_case "rejects a corrupt index" `Slow
            test_artifact_rejects_corrupt_index;
          Alcotest.test_case "read returns the version id" `Slow
            test_artifact_read_returns_version_id;
          Alcotest.test_case "reads non-canonical payloads" `Slow
            test_artifact_reads_noncanonical_payloads;
          Alcotest.test_case "hostile payloads: Ok or Error, never raise"
            `Slow test_artifact_hostile_payloads;
          Alcotest.test_case "rejects a bad normaliser" `Slow
            test_artifact_rejects_bad_normaliser;
          Alcotest.test_case "encodes trained, v2 and v1 models alike" `Slow
            test_artifact_encode_same_bytes_across_loads;
          Alcotest.test_case "rows mixing every token class round-trip"
            `Slow test_artifact_mixed_tokens_round_trip;
          Alcotest.test_case "encodes in chunks, holding the payload once"
            `Slow test_artifact_encodes_in_chunks;
        ] );
      ( "quantise",
        [
          Alcotest.test_case "signed zero, grid, non-finite keys" `Quick
            test_quantise_signed_zero_and_nan;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Slow
            test_protocol_request_roundtrip;
          Alcotest.test_case "rejects bad requests" `Quick
            test_protocol_rejects_bad_requests;
          Alcotest.test_case "error responses" `Quick
            test_protocol_error_responses;
          Alcotest.test_case "rejects non-finite counters" `Slow
            test_protocol_rejects_non_finite_counters;
          Alcotest.test_case "batch round-trip and limits" `Slow
            test_protocol_batch_roundtrip_and_limits;
        ] );
      ( "server",
        [
          Alcotest.test_case "concurrent queries, bit-identical" `Slow
            test_server_concurrent_bit_identical;
          Alcotest.test_case "batch matches singles (jobs 1)" `Slow
            (test_server_batch_matches_singles ~jobs:1);
          Alcotest.test_case "batch matches singles (jobs 4)" `Slow
            (test_server_batch_matches_singles ~jobs:4);
          Alcotest.test_case "batch cache hits" `Slow
            test_server_batch_cache_hits;
          Alcotest.test_case "answers equal in-process predictions" `Slow
            test_server_answers_equal_in_process;
          Alcotest.test_case "rejects non-finite query with a 400" `Slow
            test_server_rejects_non_finite_query;
          Alcotest.test_case "tcp ephemeral port" `Slow
            test_server_tcp_ephemeral_port;
          Alcotest.test_case "survives garbage and oversized frames" `Slow
            test_server_survives_garbage_and_oversized;
          Alcotest.test_case "json and binary wire interop" `Slow
            test_server_wire_interop;
          Alcotest.test_case "survives hostile binary headers" `Slow
            test_server_hostile_binary_header;
          Alcotest.test_case "sheds load when saturated" `Slow
            test_server_sheds_load;
          Alcotest.test_case "client retries 429 until capacity" `Slow
            test_client_retries_429_until_capacity;
          Alcotest.test_case "metrics op and prometheus scrape" `Slow
            test_server_metrics_op;
          Alcotest.test_case "top renders rates and window quantiles" `Quick
            test_top_render_synthetic;
          Alcotest.test_case "graceful drain" `Slow
            test_server_graceful_drain;
          Alcotest.test_case "bind failure leaks no fd" `Slow
            test_server_bind_failure_leaks_nothing;
          Alcotest.test_case "health, metrics, shutdown echo the id" `Slow
            test_server_echoes_request_id;
        ] );
      ( "swap",
        [
          Alcotest.test_case "hot swap under concurrent load, no torn reads"
            `Slow test_server_swap_under_load;
          Alcotest.test_case "reload op: 403, 400, live swap" `Slow
            test_server_reload_op;
          Alcotest.test_case "A/B assignment is deterministic" `Slow
            test_server_ab_deterministic;
          Alcotest.test_case "health reports version and provenance" `Slow
            test_server_health_reports_version;
          Alcotest.test_case "client reconnects for idempotent ops" `Slow
            test_client_reconnects_idempotent_ops;
          Alcotest.test_case "watch thread swaps in the background" `Slow
            test_server_watch_swaps_in_background;
          Alcotest.test_case "batch answers, counts and events per arm" `Slow
            test_server_batch_ab_per_arm;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "a loaded model shares rows as trained" `Slow
            test_artifact_shares_rows;
        ] );
      ( "promote",
        [
          Alcotest.test_case "same version: refused, even forced" `Quick
            test_promotion_same_version;
          Alcotest.test_case "too few requests: refused unless forced" `Quick
            test_promotion_too_few_requests;
          Alcotest.test_case "no latency samples: refused unless forced"
            `Quick test_promotion_no_latency_samples;
          Alcotest.test_case "p99 regression: refused unless forced" `Quick
            test_promotion_p99_regression;
          Alcotest.test_case "a pass, and unjudgeable samples" `Quick
            test_promotion_passes;
        ] );
    ]
