(* Tests for the model registry: the evidence ledger codec, the
   incremental trainer's bit-identity with cold training, publish /
   resolve / channel semantics, and gc's reachability rules.

   The central claim under test is the refit identity: folding fresh
   evidence into an existing version's sufficient statistics publishes
   a version byte-identical to a cold retrain on the union ledger —
   same content digest, same artifact bytes, one version id. *)

module J = Obs.Json

let check = Alcotest.check

(* Tiny but non-degenerate training scale (mirrors test_serve's). *)
let tiny_scale seed =
  {
    Ml_model.Dataset.n_uarchs = 2;
    n_opts = 8;
    seed;
    space = Ml_model.Features.Base;
    good_fraction = 0.1;
  }

let dataset42 = lazy (Ml_model.Dataset.generate (tiny_scale 42))
let dataset43 = lazy (Ml_model.Dataset.generate (tiny_scale 43))

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "portopt_regtest_%d_%s" (Unix.getpid ()) name)

let fresh_registry name = Registry.open_ ~dir:(tmp_path name)

let meta = [ ("suite", J.Str "registry-test") ]

(* The header line and the whole payload line. *)
let encode_of model =
  let s =
    Serve.Artifact.encode
      { Serve.Artifact.model; space = Ml_model.Features.Base; meta }
  in
  (s.Prelude.Envelope.header, String.concat "" s.Prelude.Envelope.chunks)

let or_fail ~msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- evidence ledger --------------------------------------------------- *)

let test_evidence_roundtrip () =
  let d = Lazy.force dataset42 in
  let records = Registry.Evidence.of_dataset d in
  check Alcotest.int "one record per pair"
    (Array.length d.Ml_model.Dataset.pairs)
    (List.length records);
  let path = tmp_path "ledger.jsonl" in
  Registry.Evidence.write ~path records;
  let back = or_fail ~msg:"read" (Registry.Evidence.read ~path) in
  check Alcotest.bool "records survive the JSONL round trip" true
    (records = back);
  check Alcotest.string "digest is stable across the round trip"
    (Registry.Evidence.digest records)
    (Registry.Evidence.digest back);
  (match Registry.Evidence.space records with
  | Ok Ml_model.Features.Base -> ()
  | Ok Ml_model.Features.Extended -> Alcotest.fail "wrong inferred space"
  | Error e -> Alcotest.failf "space inference failed: %s" e);
  (* Per-record identity and provenance digests are well-formed. *)
  List.iter
    (fun (r : Registry.Evidence.record) ->
      if Array.length r.Registry.Evidence.good = 0 then
        Alcotest.fail "empty good set";
      if String.length r.Registry.Evidence.prog_digest = 0 then
        Alcotest.fail "empty program digest")
    records;
  (* A corrupted line is rejected with its position. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"prog\":\"x\"}\n";
  close_out oc;
  match Registry.Evidence.read ~path with
  | Ok _ -> Alcotest.fail "accepted a truncated record"
  | Error e ->
    let contains ~needle hay =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "error names the line" true
      (contains ~needle:(Printf.sprintf "line %d" (List.length records + 1)) e)

(* ---- refit bit-identity ------------------------------------------------ *)

let test_refit_matches_cold_training () =
  let d = Lazy.force dataset42 in
  let records = Registry.Evidence.of_dataset d in
  let cold = Ml_model.Model.train d in
  let refit =
    or_fail ~msg:"to_model"
      (Registry.Refit.to_model (Registry.Refit.of_records records))
  in
  (* Byte-identity through the artifact encoding: every float of the
     distributions, normaliser, feature rows and frozen index agrees
     bit for bit. *)
  let cold_header, cold_payload = encode_of cold in
  let refit_header, refit_payload = encode_of refit in
  check Alcotest.string "artifact payloads are byte-identical" cold_payload
    refit_payload;
  check Alcotest.string "headers (checksums) agree" cold_header refit_header

let test_incremental_fold_matches_union () =
  let e1 = Registry.Evidence.of_dataset (Lazy.force dataset42) in
  let e2 = Registry.Evidence.of_dataset (Lazy.force dataset43) in
  (* Incremental: fold e2 into a state already holding e1. *)
  let state = Registry.Refit.of_records e1 in
  Registry.Refit.fold state e2;
  let incremental = or_fail ~msg:"refit" (Registry.Refit.to_model state) in
  (* Cold: one fit of the concatenated ledger. *)
  let union = Registry.Refit.of_records (e1 @ e2) in
  let cold = or_fail ~msg:"cold" (Registry.Refit.to_model union) in
  check Alcotest.int "same pair count" (Registry.Refit.pairs union)
    (Registry.Refit.pairs state);
  check Alcotest.int "records accumulate"
    (List.length e1 + List.length e2)
    (Registry.Refit.records state);
  let _, p_inc = encode_of incremental in
  let _, p_cold = encode_of cold in
  check Alcotest.string "fold(of_records e1, e2) == of_records (e1 @ e2)"
    p_cold p_inc

(* ---- publish / resolve / channels -------------------------------------- *)

let test_publish_refit_same_version () =
  let e1 = Registry.Evidence.of_dataset (Lazy.force dataset42) in
  let e2 = Registry.Evidence.of_dataset (Lazy.force dataset43) in
  (* Registry A: cold v1, then incremental refit to v2. *)
  let ra = fresh_registry "pub_a" in
  let l1 =
    or_fail ~msg:"publish v1"
      (Registry.publish ~channel:"stable" ~created:0.0 ra e1)
  in
  check Alcotest.bool "v1 is a cold fit" true (l1.Registry.l_parent = None);
  let l2 =
    or_fail ~msg:"refit v2"
      (Registry.publish ~parent:"stable" ~channel:"candidate" ~created:1.0 ra
         e2)
  in
  check Alcotest.bool "v2 records its parent" true
    (l2.Registry.l_parent = Some l1.Registry.l_id);
  (* Registry B: one cold fit of the union ledger. *)
  let rb = fresh_registry "pub_b" in
  let l2' =
    or_fail ~msg:"cold union" (Registry.publish ~created:1.0 rb (e1 @ e2))
  in
  check Alcotest.string
    "refit and cold retrain content-address to the same version"
    l2'.Registry.l_id l2.Registry.l_id;
  check Alcotest.string "stored artifacts are byte-identical"
    (read_file (Registry.object_path rb l2'.Registry.l_id))
    (read_file (Registry.object_path ra l2.Registry.l_id));
  (* The stored ledger of the refit child is the union, append-only. *)
  let stored =
    or_fail ~msg:"evidence" (Registry.evidence ra l2.Registry.l_id)
  in
  check Alcotest.bool "child ledger = parent ledger ++ delta" true
    (stored = e1 @ e2);
  check Alcotest.string "lineage digest matches the union ledger"
    (Registry.Evidence.digest (e1 @ e2))
    l2.Registry.l_evidence_digest;
  (* Republishing identical content is a no-op that keeps the id. *)
  let l2'' =
    or_fail ~msg:"republish" (Registry.publish ~created:9.0 rb (e1 @ e2))
  in
  check Alcotest.string "republish dedupes" l2'.Registry.l_id
    l2''.Registry.l_id;
  check Alcotest.bool "first lineage record wins" true
    (l2''.Registry.l_created = l2'.Registry.l_created)

let test_resolve_and_channels () =
  let e1 = Registry.Evidence.of_dataset (Lazy.force dataset42) in
  let r = fresh_registry "resolve" in
  let l1 =
    or_fail ~msg:"publish"
      (Registry.publish ~channel:"stable" ~created:0.0 r e1)
  in
  let id = l1.Registry.l_id in
  (* latest always follows a publish; the named channel moved too. *)
  check Alcotest.(option string) "latest moved" (Some id)
    (Registry.channel r "latest");
  check Alcotest.(option string) "stable moved" (Some id)
    (Registry.channel r "stable");
  (* Channel name, exact id and unambiguous prefix all resolve. *)
  List.iter
    (fun ref_ ->
      check Alcotest.string
        (Printf.sprintf "resolve %S" ref_)
        id
        (or_fail ~msg:ref_ (Registry.resolve_id r ref_)))
    [ "stable"; "latest"; id; String.sub id 0 6 ];
  (* The loaded artifact is the stored model, checksum-verified. *)
  let rid, artifact = or_fail ~msg:"resolve" (Registry.resolve r "stable") in
  check Alcotest.string "resolve returns the id" id rid;
  check Alcotest.string "artifact content-addresses to its id" id
    (Serve.Artifact.version_id artifact);
  (* Failure modes: unknown ref, too-short prefix, dangling pointer. *)
  (match Registry.resolve_id r "feedbeeffeedbeef" with
  | Ok _ -> Alcotest.fail "resolved an unknown id"
  | Error _ -> ());
  (match Registry.resolve_id r (String.sub id 0 3) with
  | Ok _ -> Alcotest.fail "resolved a 3-char prefix"
  | Error _ -> ());
  (match Registry.set_channel r ~name:"stable" ~id:"feedbeeffeedbeef" with
  | Ok () -> Alcotest.fail "pointed a channel at a missing version"
  | Error _ -> ());
  (match Registry.set_channel r ~name:"../evil" ~id with
  | Ok () -> Alcotest.fail "accepted a path-traversal channel name"
  | Error _ -> ());
  (* Versions listing carries the lineage. *)
  let versions = or_fail ~msg:"versions" (Registry.versions r) in
  check Alcotest.int "one version" 1 (List.length versions);
  check Alcotest.string "listed id" id (List.hd versions).Registry.l_id;
  (* A misfiled object: intact bytes under another valid id.  Its
     checksum verifies, but it must not be served under a name that is
     not its digest. *)
  let other = if id = "0123456789abcdef" then "fedcba9876543210" else "0123456789abcdef" in
  let oc = open_out_bin (Registry.object_path r other) in
  output_string oc (read_file (Registry.object_path r id));
  close_out oc;
  or_fail ~msg:"point at the copy"
    (Registry.set_channel r ~name:"misfiled" ~id:other);
  match Registry.resolve r "misfiled" with
  | Ok _ -> Alcotest.fail "resolved an object filed under another id"
  | Error e ->
    check Alcotest.bool "the error names the id and the digest" true
      (let contains needle =
         let n = String.length needle in
         let rec go i =
           i + n <= String.length e && (String.sub e i n = needle || go (i + 1))
         in
         go 0
       in
       contains other && contains id)

(* The serving source reads only what moved: both arms on the first
   call, the new candidate after a candidate publish, and nothing after a
   promote, which points stable at the candidate it already holds. *)
let test_source_resolves_only_moved_ids () =
  let e1 = Registry.Evidence.of_dataset (Lazy.force dataset42) in
  let e2 = Registry.Evidence.of_dataset (Lazy.force dataset43) in
  let r = fresh_registry "source" in
  let publish ?parent ~channel ~created records =
    (or_fail ~msg:("publish " ^ channel)
       (Registry.publish ?parent ~channel ~created r records))
      .Registry.l_id
  in
  let v1 = publish ~channel:"stable" ~created:0.0 e1 in
  let v2 = publish ~parent:v1 ~channel:"candidate" ~created:1.0 e2 in
  let source =
    Registry.source r ~stable_channel:"stable"
      ~candidate_channel:(Some "candidate")
  in
  let resolves = Obs.Metrics.counter "registry.resolves" in
  (* One call: the arms it swapped in and how many resolves it took. *)
  let poll what =
    let before = Obs.Metrics.value resolves in
    match or_fail ~msg:what (source ()) with
    | Serve.Server.Unchanged -> Alcotest.failf "%s: Unchanged" what
    | Serve.Server.Swap { stable; candidate = Some candidate } ->
      (stable, candidate, Obs.Metrics.value resolves - before)
    | Serve.Server.Swap { candidate = None; _ } ->
      Alcotest.failf "%s: no candidate arm" what
  in
  let ids what (stable, candidate, _) expected =
    check Alcotest.(pair string string) (what ^ ": arm ids") expected
      (fst stable, fst candidate)
  in
  let resolved what (_, _, n) expected =
    check Alcotest.int (what ^ ": registry.resolves delta") expected n
  in
  let first = poll "first call" in
  ids "first call" first (v1, v2);
  resolved "first call" first 2;
  let before = Obs.Metrics.value resolves in
  (match or_fail ~msg:"unmoved" (source ()) with
  | Serve.Server.Unchanged -> ()
  | Serve.Server.Swap _ -> Alcotest.fail "unmoved pointers swapped");
  check Alcotest.int "unmoved pointers resolve nothing" before
    (Obs.Metrics.value resolves);
  let v3 =
    publish ~channel:"candidate" ~created:2.0
      (List.filteri (fun i _ -> i mod 2 = 0) (e1 @ e2))
  in
  let published = poll "candidate publish" in
  ids "candidate publish" published (v1, v3);
  resolved "candidate publish" published 1;
  let held (_, a) (_, b) = a == b in
  let stable_of (s, _, _) = s and candidate_of (_, c, _) = c in
  check Alcotest.bool "the unmoved stable arm is reused" true
    (held (stable_of first) (stable_of published));
  or_fail ~msg:"promote" (Registry.set_channel r ~name:"stable" ~id:v3);
  let promoted = poll "promote" in
  ids "promote" promoted (v3, v3);
  resolved "promote" promoted 0;
  check Alcotest.bool "stable reuses the held candidate" true
    (held (candidate_of published) (stable_of promoted));
  check Alcotest.bool "the candidate arm is reused" true
    (held (candidate_of published) (candidate_of promoted))

(* ---- gc reachability --------------------------------------------------- *)

let test_gc_respects_channels_and_lineage () =
  let e1 = Registry.Evidence.of_dataset (Lazy.force dataset42) in
  let e2 = Registry.Evidence.of_dataset (Lazy.force dataset43) in
  let r = fresh_registry "gc" in
  let v1 =
    (or_fail ~msg:"v1" (Registry.publish ~created:0.0 r e1)).Registry.l_id
  in
  let v2 =
    (or_fail ~msg:"v2"
       (Registry.publish ~parent:v1 ~created:1.0 r e2))
      .Registry.l_id
  in
  (* A third, unrelated version that nothing will point at. *)
  let e3 =
    List.filteri (fun i _ -> i mod 2 = 0) (e1 @ e2)
  in
  let v3 =
    (or_fail ~msg:"v3" (Registry.publish ~created:2.0 r e3)).Registry.l_id
  in
  (* Point every channel at v2: v1 stays reachable only through v2's
     lineage parent chain; v3 becomes garbage. *)
  or_fail ~msg:"stable" (Registry.set_channel r ~name:"stable" ~id:v2);
  or_fail ~msg:"latest" (Registry.set_channel r ~name:"latest" ~id:v2);
  (* Dry run reports without deleting. *)
  let deleted, kept = or_fail ~msg:"gc dry" (Registry.gc ~dry_run:true r) in
  check Alcotest.(list string) "dry run finds exactly the orphan" [ v3 ]
    deleted;
  check Alcotest.int "dry run keeps the chain" 2 kept;
  check Alcotest.bool "dry run deleted nothing" true
    (Sys.file_exists (Registry.object_path r v3));
  (* Real run: v3 goes, v1 survives via the lineage chain. *)
  let deleted, kept = or_fail ~msg:"gc" (Registry.gc r) in
  check Alcotest.(list string) "gc deletes exactly the orphan" [ v3 ] deleted;
  check Alcotest.int "gc keeps channel targets and their ancestry" 2 kept;
  check Alcotest.bool "orphan object removed" false
    (Sys.file_exists (Registry.object_path r v3));
  ignore (or_fail ~msg:"v1 resolves" (Registry.resolve r v1));
  ignore (or_fail ~msg:"v2 resolves" (Registry.resolve r v2));
  (* A dangling pointer aborts gc instead of risking live versions. *)
  let rd = fresh_registry "gc_dangling" in
  ignore (or_fail ~msg:"publish" (Registry.publish ~created:0.0 rd e1));
  let ch = Filename.concat (Filename.concat (Registry.dir rd) "channels") "stable" in
  let oc = open_out ch in
  output_string oc "feedbeeffeedbeef\n";
  close_out oc;
  match Registry.gc rd with
  | Ok _ -> Alcotest.fail "gc ran with a dangling channel pointer"
  | Error e ->
    check Alcotest.bool "error names the channel" true
      (String.length e > 0)

let () =
  Alcotest.run "registry"
    [
      ( "evidence",
        [ Alcotest.test_case "ledger round-trip and rejects" `Slow
            test_evidence_roundtrip ] );
      ( "refit",
        [
          Alcotest.test_case "refit == cold training, bit for bit" `Slow
            test_refit_matches_cold_training;
          Alcotest.test_case "incremental fold == union fit" `Slow
            test_incremental_fold_matches_union;
        ] );
      ( "publish",
        [
          Alcotest.test_case "refit publishes the cold retrain's version"
            `Slow test_publish_refit_same_version;
          Alcotest.test_case "resolve, channels, failure modes" `Slow
            test_resolve_and_channels;
          Alcotest.test_case "source resolves only the ids that moved" `Slow
            test_source_resolves_only_moved_ids;
        ] );
      ( "gc",
        [
          Alcotest.test_case "keeps channels and lineage chains" `Slow
            test_gc_respects_channels_and_lineage;
        ] );
    ]
