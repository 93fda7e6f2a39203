(* Tests for the content-addressed evaluation store: digest stability,
   run export/import round-trips, record corruption negatives,
   concurrent writers, LRU garbage collection, the two-tier profile
   cache and the headline property — a warm store rebuilds the dataset
   bit-identically with zero interpreter runs. *)

module F = Passes.Flags
module X = Sim.Xtrem

let check = Alcotest.check

let program name =
  Workloads.Mibench.program_of (Workloads.Mibench.by_name name)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let tmp_dir name =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "portopt_store_%d_%s" (Unix.getpid ()) name)
  in
  if Sys.file_exists path then rm_rf path;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

let replace s ~sub ~by =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then
      Alcotest.failf "replace: %S not found" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* All record files in a store directory, path-sorted. *)
let record_paths dir =
  let obj = Filename.concat dir "objects" in
  Sys.readdir obj |> Array.to_list
  |> List.concat_map (fun sub ->
         let sd = Filename.concat obj sub in
         if Sys.is_directory sd then
           Sys.readdir sd |> Array.to_list
           |> List.filter_map (fun n ->
                  if Filename.check_suffix n ".rec" then
                    Some (Filename.concat sd n)
                  else None)
         else [])
  |> List.sort compare

(* ---- digests ---------------------------------------------------------- *)

let test_fnv_vectors () =
  (* Published FNV-1a 64 test vectors. *)
  check Alcotest.string "empty" "cbf29ce484222325" (Prelude.Fnv.digest_string "");
  check Alcotest.string "a" "af63dc4c8601ec8c" (Prelude.Fnv.digest_string "a");
  check Alcotest.string "foobar" "85944171f73967e8"
    (Prelude.Fnv.digest_string "foobar");
  (* Streaming = one-shot. *)
  let d = Prelude.Fnv.create () in
  Prelude.Fnv.add_string d "foo";
  Prelude.Fnv.add_string d "bar";
  check Alcotest.string "streaming" "85944171f73967e8" (Prelude.Fnv.to_hex d);
  (* The string kernel equals the byte-at-a-time fold, on any bytes and
     from any starting state. *)
  let rng = Random.State.make [| 12 |] in
  for i = 1 to 200 do
    let s =
      String.init (Random.State.int rng (4 * i)) (fun _ ->
          Char.chr (Random.State.int rng 256))
    in
    let prefix = String.make (i mod 3) 'p' in
    let by_string = Prelude.Fnv.create () and by_char = Prelude.Fnv.create () in
    Prelude.Fnv.add_string by_string prefix;
    Prelude.Fnv.add_string by_string s;
    String.iter (Prelude.Fnv.add_char by_char) (prefix ^ s);
    check Alcotest.string
      (Printf.sprintf "add_string = add_char fold (%d bytes)" (String.length s))
      (Prelude.Fnv.to_hex by_char) (Prelude.Fnv.to_hex by_string)
  done

let test_digests_stable_and_distinct () =
  let p = program "crc" in
  let q = program "dijkstra" in
  check Alcotest.string "program digest deterministic"
    (Store.program_digest p) (Store.program_digest p);
  check Alcotest.bool "programs distinguished" true
    (Store.program_digest p <> Store.program_digest q);
  let rng = Prelude.Rng.create 11 in
  let s1 = F.random rng and s2 = F.random rng in
  check Alcotest.bool "settings distinguished" true
    (F.cache_key s1 = F.cache_key s2
    || Store.setting_digest s1 <> Store.setting_digest s2);
  let key = Store.profile_key ~program_digest:(Store.program_digest p) ~setting:s1 in
  check Alcotest.bool "key embeds pipeline fingerprint" true
    (contains key Passes.Driver.fingerprint)

(* ---- run codec -------------------------------------------------------- *)

let test_export_import_roundtrip () =
  let p = program "crc" in
  let rng = Prelude.Rng.create 7 in
  for i = 0 to 4 do
    let setting = if i = 0 then F.o3 else F.random rng in
    let r = X.profile_of ~setting p in
    (* Through the JSON text, as the disk does. *)
    match Obs.Json.of_string (Obs.Json.to_string (X.export r)) with
    | Error e -> Alcotest.fail e
    | Ok j -> (
      match X.import j with
      | Error e -> Alcotest.fail e
      | Ok r' ->
        if r' <> r then Alcotest.fail "import (export r) not bit-identical")
  done

let test_import_rejects_malformed () =
  let r = X.profile_of ~setting:F.o3 (program "crc") in
  let j = X.export r in
  (match X.import (Obs.Json.Obj [ ("setting", Obs.Json.Int 3) ]) with
  | Ok _ -> Alcotest.fail "accepted malformed run"
  | Error e ->
    check Alcotest.bool "names the field" true (contains e "setting"));
  (* An out-of-range setting value must not import. *)
  match j with
  | Obs.Json.Obj fields ->
    let bad =
      Obs.Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "setting" then
               (k, Obs.Json.List [ Obs.Json.Int 999 ])
             else (k, v))
           fields)
    in
    (match X.import bad with
    | Ok _ -> Alcotest.fail "accepted out-of-range setting"
    | Error _ -> ())
  | _ -> Alcotest.fail "export is not an object"

(* ---- store round-trip ------------------------------------------------- *)

let test_store_roundtrip () =
  let dir = tmp_dir "roundtrip" in
  let st = Store.open_ ~dir in
  let p = program "crc" in
  let key =
    Store.profile_key ~program_digest:(Store.program_digest p) ~setting:F.o3
  in
  check Alcotest.bool "cold miss" true (Store.find_run st ~key = None);
  let r = X.profile_of ~setting:F.o3 p in
  Store.put_run st ~key r;
  (match Store.find_run st ~key with
  | None -> Alcotest.fail "expected a hit after put"
  | Some r' -> if r' <> r then Alcotest.fail "stored run differs");
  let s = Store.stats st in
  check Alcotest.int "one entry" 1 s.Store.entries;
  check Alcotest.bool "bytes positive" true (s.Store.bytes > 0);
  (* A second handle on the same directory (another process, in
     effect) reads the same record back. *)
  let st2 = Store.open_ ~dir in
  (match Store.find_run st2 ~key with
  | Some r' when r' = r -> ()
  | _ -> Alcotest.fail "reopened store missed");
  let report = Store.verify st2 in
  check Alcotest.int "verify checked" 1 report.Store.checked;
  check Alcotest.int "verify clean" 0 (List.length report.Store.errors)

(* ---- corruption negatives --------------------------------------------- *)

(* One store directory with one known-good record, recreated per case. *)
let with_record name f =
  let dir = tmp_dir name in
  let st = Store.open_ ~dir in
  let p = program "crc" in
  let key =
    Store.profile_key ~program_digest:(Store.program_digest p) ~setting:F.o3
  in
  Store.put_run st ~key (X.profile_of ~setting:F.o3 p);
  match record_paths dir with
  | [ path ] -> f st key path
  | l -> Alcotest.failf "expected one record, found %d" (List.length l)

let expect_load_error st key path sub =
  (match Store.load_record ~path with
  | Ok _ -> Alcotest.failf "loaded a record that should fail with %S" sub
  | Error e ->
    if not (contains e sub) then
      Alcotest.failf "error %S does not mention %S" e sub);
  (* Readers degrade to a miss, never an exception. *)
  check Alcotest.bool "find degrades to miss" true
    (Store.find_run st ~key = None);
  (* And verify reports exactly this record. *)
  let report = Store.verify st in
  check Alcotest.int "verify flags it" 1 (List.length report.Store.errors)

let test_corrupt_flipped_byte () =
  with_record "flip" (fun st key path ->
      let text = read_file path in
      let nl = String.index text '\n' in
      let b = Bytes.of_string text in
      let i = nl + 20 in
      Bytes.set b i (if Bytes.get b i = 'a' then 'b' else 'a');
      write_file path (Bytes.to_string b);
      expect_load_error st key path "checksum mismatch")

let test_corrupt_truncated () =
  with_record "truncate" (fun st key path ->
      let text = read_file path in
      let nl = String.index text '\n' in
      write_file path (String.sub text 0 (nl + 10));
      expect_load_error st key path "truncated record")

let test_corrupt_empty () =
  with_record "empty" (fun st key path ->
      write_file path "";
      expect_load_error st key path "truncated record")

let test_corrupt_future_version () =
  with_record "future" (fun st key path ->
      let text = read_file path in
      write_file path (replace text ~sub:"\"version\":2" ~by:"\"version\":99");
      expect_load_error st key path "unsupported store version")

(* Records written before the static-size field (version 1, no "size")
   must still load: the run comes back with [size = None] and readers
   recompute the size on demand. *)
let test_v1_record_still_loads () =
  with_record "v1" (fun st key path ->
      let text = read_file path in
      let nl = String.index text '\n' in
      let payload = String.sub text (nl + 1) (String.length text - nl - 2) in
      (* Strip the v2-only "size" field and restamp as a version-1
         record — header checksum covers the payload line. *)
      let old_payload =
        let module J = Obs.Json in
        match J.of_string payload with
        | Ok (J.Obj [ ("key", k); ("run", J.Obj run_fields) ]) ->
          J.to_string
            (J.Obj
               [ ("key", k); ("run", J.Obj (List.remove_assoc "size" run_fields)) ])
        | _ -> Alcotest.fail "payload is not the expected record object"
      in
      let header =
        let module J = Obs.Json in
        J.to_string
          (J.Obj
             [
               ("magic", J.Str "portopt-store");
               ("version", J.Int 1);
               ("checksum", J.Str (Prelude.Fnv.tagged_string old_payload));
               ("bytes", J.Int (String.length old_payload));
             ])
      in
      write_file path (header ^ "\n" ^ old_payload ^ "\n");
      match Store.find_run st ~key with
      | None -> Alcotest.fail "v1 record did not load"
      | Some r ->
        check Alcotest.bool "v1 run has no stored size" true
          (r.X.size = None))

let test_corrupt_wrong_magic () =
  with_record "magic" (fun st key path ->
      let text = read_file path in
      write_file path
        (replace text ~sub:"\"portopt-store\"" ~by:"\"someone-else\"");
      expect_load_error st key path "not a portopt store record")

let test_corrupt_key_mismatch () =
  with_record "keymismatch" (fun st key path ->
      (* Rename the record to another key's path: content is intact but
         addresses the wrong key — must not be served. *)
      let other = Filename.concat (Filename.dirname path) "deadbeef.rec" in
      Sys.rename path other;
      (match Store.load_record ~path:other with
      | Ok _ -> ()  (* load_record returns the payload key... *)
      | Error e -> Alcotest.failf "intact record failed to load: %s" e);
      check Alcotest.bool "find by old key misses" true
        (Store.find_run st ~key = None);
      let report = Store.verify st in
      check Alcotest.int "verify flags the rename" 1
        (List.length report.Store.errors);
      match report.Store.errors with
      | [ (_, reason) ] ->
        check Alcotest.bool "reason is key mismatch" true
          (contains reason "key mismatch")
      | _ -> Alcotest.fail "unexpected verify report")

(* A header whose length is negative must read as an error, not crash
   the reader: [find_run] misses and counts [store.errors], [verify]
   flags the record. *)
let test_corrupt_negative_length () =
  with_record "negative" (fun st key path ->
      let text = read_file path in
      let nl = String.index text '\n' in
      let bytes = String.length text - nl - 2 in
      write_file path
        (replace text
           ~sub:(Printf.sprintf "\"bytes\":%d}" bytes)
           ~by:"\"bytes\":-1}");
      let errors = Obs.Metrics.counter "store.errors" in
      let before = Obs.Metrics.value errors in
      expect_load_error st key path "negative payload length";
      check Alcotest.int "find_run counts one store.errors" (before + 1)
        (Obs.Metrics.value errors);
      check
        Alcotest.(list string)
        "verify flags exactly this record" [ path ]
        (List.map fst (Store.verify st).Store.errors))

(* ---- concurrent writers ----------------------------------------------- *)

let test_concurrent_writers () =
  let dir = tmp_dir "concurrent" in
  let p = program "crc" in
  let rng = Prelude.Rng.create 5 in
  let settings = Array.init 6 (fun i -> if i = 0 then F.o3 else F.random rng) in
  let runs = Array.map (fun s -> X.profile_of ~setting:s p) settings in
  let pd = Store.program_digest p in
  let keys =
    Array.map (fun s -> Store.profile_key ~program_digest:pd ~setting:s) settings
  in
  (* Four writers, each with its own handle (as separate processes
     would have), hammering overlapping keys. *)
  let writers =
    List.init 4 (fun ti ->
        Thread.create
          (fun () ->
            let st = Store.open_ ~dir in
            for i = 0 to 23 do
              let j = (i + ti) mod Array.length keys in
              Store.put_run st ~key:keys.(j) runs.(j)
            done)
          ())
  in
  List.iter Thread.join writers;
  let st = Store.open_ ~dir in
  let distinct =
    List.length (List.sort_uniq compare (Array.to_list keys))
  in
  let report = Store.verify st in
  check Alcotest.int "every key stored once" distinct report.Store.checked;
  check Alcotest.int "no corruption" 0 (List.length report.Store.errors);
  Array.iteri
    (fun j key ->
      match Store.find_run st ~key with
      | Some r when r = runs.(j) -> ()
      | Some _ -> Alcotest.failf "key %d served a different run" j
      | None -> Alcotest.failf "key %d missing" j)
    keys;
  (* No temp debris left behind. *)
  let obj = Filename.concat dir "objects" in
  Array.iter
    (fun sub ->
      let sd = Filename.concat obj sub in
      if Sys.is_directory sd then
        Array.iter
          (fun n ->
            if not (Filename.check_suffix n ".rec") then
              Alcotest.failf "leftover temp file %s" n)
          (Sys.readdir sd))
    (Sys.readdir obj)

(* ---- garbage collection ----------------------------------------------- *)

let distinct_settings n seed =
  let rng = Prelude.Rng.create seed in
  let seen = Hashtbl.create 16 in
  Array.init n (fun _ ->
      let rec fresh () =
        let s = F.random rng in
        if Hashtbl.mem seen (F.cache_key s) then fresh ()
        else begin
          Hashtbl.add seen (F.cache_key s) ();
          s
        end
      in
      fresh ())


let test_gc_oldest_first () =
  let dir = tmp_dir "gc" in
  let st = Store.open_ ~dir in
  let p = program "crc" in
  let rng = Prelude.Rng.create 13 in
  let settings =
    (* Distinct canonical settings so each put lands in its own record. *)
    let seen = Hashtbl.create 8 in
    Array.init 5 (fun _ ->
        let rec fresh () =
          let s = F.random rng in
          if Hashtbl.mem seen (F.cache_key s) then fresh ()
          else begin
            Hashtbl.add seen (F.cache_key s) ();
            s
          end
        in
        fresh ())
  in
  let pd = Store.program_digest p in
  let keys =
    Array.map (fun s -> Store.profile_key ~program_digest:pd ~setting:s) settings
  in
  Array.iteri
    (fun i s -> Store.put_run st ~key:keys.(i) (X.profile_of ~setting:s p))
    settings;
  (* Impose an explicit age order: record i last used at second i. *)
  Array.iteri
    (fun i key ->
      let path =
        List.find
          (fun path -> Filename.basename path = key ^ ".rec")
          (record_paths dir)
      in
      Unix.utimes path (float_of_int (i + 1)) (float_of_int (i + 1)))
    keys;
  let total = (Store.stats st).Store.bytes in
  let bound = total * 2 / 5 in
  let evicted, after = Store.gc st ~max_bytes:bound in
  check Alcotest.bool "evicted some" true (evicted >= 3);
  check Alcotest.int "entries tally" (5 - evicted) after.Store.entries;
  check Alcotest.bool "under bound" true (after.Store.bytes <= bound);
  (* Deletions are oldest-first: a missing record is never newer than a
     surviving one. *)
  Array.iteri
    (fun i key ->
      let expected_present = i >= evicted in
      let present = Store.find_run st ~key <> None in
      check Alcotest.bool
        (Printf.sprintf "record %d %s" i
           (if expected_present then "survives" else "evicted"))
        expected_present present)
    keys;
  (* Survivors are untouched records, not partial files. *)
  check Alcotest.int "survivors verify clean" 0
    (List.length (Store.verify st).Store.errors);
  let evicted_all, empty = Store.gc st ~max_bytes:0 in
  check Alcotest.int "gc to zero empties" 0 empty.Store.entries;
  check Alcotest.int "remaining evicted" (5 - evicted) evicted_all

let test_gc_dry_run_deletes_nothing () =
  let dir = tmp_dir "gc_dry" in
  let st = Store.open_ ~dir in
  let p = program "sha" in
  let pd = Store.program_digest p in
  let settings = distinct_settings 4 29 in
  Array.iter
    (fun s ->
      Store.put_run st
        ~key:(Store.profile_key ~program_digest:pd ~setting:s)
        (X.profile_of ~setting:s p))
    settings;
  let before = Store.stats st in
  let bound = before.Store.bytes / 2 in
  let would_evict, projected = Store.gc ~dry_run:true st ~max_bytes:bound in
  (* The dry run reports the plan... *)
  check Alcotest.bool "would evict some" true (would_evict >= 1);
  check Alcotest.int "projected entries"
    (before.Store.entries - would_evict)
    projected.Store.entries;
  check Alcotest.bool "projected bytes under bound" true
    (projected.Store.bytes <= bound);
  (* ...but touches nothing on disk.  [verify] reads every record
     without refreshing its mtime: a lookup would reorder the LRU and
     so change the plan that the real gc below must enact. *)
  let after = Store.stats st in
  check Alcotest.int "entries untouched" before.Store.entries
    after.Store.entries;
  check Alcotest.int "bytes untouched" before.Store.bytes after.Store.bytes;
  let report = Store.verify st in
  check Alcotest.int "every record still present" (Array.length settings)
    report.Store.checked;
  check Alcotest.int "every record still readable" 0
    (List.length report.Store.errors);
  (* A real gc then enacts exactly the dry run's plan. *)
  let evicted, stats = Store.gc st ~max_bytes:bound in
  check Alcotest.int "real gc evicts the planned count" would_evict evicted;
  check Alcotest.int "real gc lands on the projection"
    projected.Store.entries stats.Store.entries

(* ---- two-tier profile cache ------------------------------------------- *)

let test_profile_cache_ram_bound () =
  let cache = Store.Profile_cache.create ~ram_capacity:2 () in
  let p = program "crc" in
  let pd = Store.program_digest p in
  let computed = ref 0 in
  let get s =
    Store.Profile_cache.find_or_compute cache ~program_digest:pd ~setting:s
      (fun () ->
        incr computed;
        X.profile_of ~setting:s p)
  in
  let s = distinct_settings 3 17 in
  let r0 = get s.(0) in
  check Alcotest.bool "returned run carries requested setting" true
    (r0.X.setting == s.(0));
  ignore (get s.(1));
  ignore (get s.(2));
  check Alcotest.int "three cold computes" 3 !computed;
  check Alcotest.int "RAM tier bounded" 2 (Store.Profile_cache.ram_size cache);
  ignore (get s.(2));
  check Alcotest.int "recent entry hits" 3 !computed;
  ignore (get s.(0));
  check Alcotest.int "evicted entry recomputes" 4 !computed

let test_profile_cache_disk_tier () =
  let dir = tmp_dir "twotier" in
  let st = Store.open_ ~dir in
  let p = program "crc" in
  let pd = Store.program_digest p in
  let s = distinct_settings 3 19 in
  let computed = ref 0 in
  let get cache setting =
    Store.Profile_cache.find_or_compute cache ~program_digest:pd ~setting
      (fun () ->
        incr computed;
        X.profile_of ~setting p)
  in
  let c1 = Store.Profile_cache.create ~ram_capacity:8 ~disk:st () in
  let cold = Array.map (get c1) s in
  check Alcotest.int "cold computes" 3 !computed;
  (* A fresh cache over the same store: disk hits, zero computes. *)
  let c2 =
    Store.Profile_cache.create ~ram_capacity:8 ~disk:(Store.open_ ~dir) ()
  in
  let warm = Array.map (get c2) s in
  check Alcotest.int "warm computes nothing" 3 !computed;
  check Alcotest.bool "warm runs bit-identical" true (cold = warm)

(* ---- warm dataset: the headline acceptance property ------------------- *)

let tiny_scale =
  {
    Ml_model.Dataset.n_uarchs = 2;
    n_opts = 6;
    seed = 29;
    space = Ml_model.Features.Base;
    good_fraction = 0.1;
  }

let test_warm_dataset_zero_interps () =
  let dir = tmp_dir "warm_dataset" in
  let d1 = Ml_model.Dataset.generate ~store:(Store.open_ ~dir) tiny_scale in
  let interp = Obs.Metrics.counter "interp.runs" in
  let before = Obs.Metrics.value interp in
  let d2 = Ml_model.Dataset.generate ~store:(Store.open_ ~dir) tiny_scale in
  check Alcotest.int "warm rerun performs zero interpreter runs" 0
    (Obs.Metrics.value interp - before);
  (* The rebuilt dataset is bit-identical, fields and floats included. *)
  check Alcotest.bool "settings" true
    (d1.Ml_model.Dataset.settings = d2.Ml_model.Dataset.settings);
  check Alcotest.bool "o3 runs" true
    (d1.Ml_model.Dataset.o3_runs = d2.Ml_model.Dataset.o3_runs);
  check Alcotest.bool "runs" true
    (d1.Ml_model.Dataset.runs = d2.Ml_model.Dataset.runs);
  check Alcotest.bool "pairs" true
    (d1.Ml_model.Dataset.pairs = d2.Ml_model.Dataset.pairs);
  check Alcotest.bool "provenance digests" true
    (Ml_model.Dataset.provenance_digests d1
    = Ml_model.Dataset.provenance_digests d2);
  (* And so is a saved model artifact, byte for byte. *)
  let save name d =
    let path = Filename.concat (tmp_dir ("art_" ^ name)) "m.pcm" in
    Unix.mkdir (Filename.dirname path) 0o755;
    Serve.Artifact.save ~path
      {
        Serve.Artifact.model = Ml_model.Model.train d;
        space = tiny_scale.Ml_model.Dataset.space;
        meta = [ ("suite", Obs.Json.Str "store-test") ];
      };
    read_file path
  in
  check Alcotest.bool "saved artifacts byte-identical" true
    (save "cold" d1 = save "warm" d2)

(* ---- the shared envelope ---------------------------------------------- *)

(* Each case carries every later fault too, so the error names the first
   check in [Prelude.Envelope.read]'s order. *)
let test_envelope_check_order () =
  let fmt =
    {
      Prelude.Envelope.magic = "test-format";
      oldest = 1;
      current = 2;
      noun = "test file";
      kind = "test";
    }
  in
  let dir = tmp_dir "envelope_order" in
  Prelude.Envelope.mkdir_p dir;
  let path = Filename.concat dir "f" in
  let payload = "{\"x\":1}" in
  let header ?(magic = "test-format") ?(version = 2) ?(checksum = "fnv1a64:0")
      bytes =
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("magic", Obs.Json.Str magic);
           ("version", Obs.Json.Int version);
           ("checksum", Obs.Json.Str checksum);
           ("bytes", Obs.Json.Int bytes);
         ])
  in
  let expect text sub =
    write_file path text;
    match Prelude.Envelope.read fmt ~path with
    | Ok _ -> Alcotest.failf "read %S, expected an error with %S" text sub
    | Error e ->
      if not (String.starts_with ~prefix:(path ^ ": ") e && contains e sub)
      then Alcotest.failf "error %S is not %S prefixed by the path" e sub
  in
  expect "" "truncated record (no header line)";
  expect "{\"magic\":" "truncated record (no header line)";
  expect ("{\"magic\":\"other\"}\n" ^ payload) "malformed header";
  expect
    (header ~magic:"other" ~version:9 (-1) ^ "\n")
    "not a portopt test file (magic \"other\")";
  expect
    (header ~version:9 (-1) ^ "\n")
    "unsupported test version 9 (this build reads versions 1-2)";
  expect (header ~version:0 (-1) ^ "\n") "unsupported test version 0";
  expect (header (-1) ^ "\n" ^ payload) "negative payload length -1";
  expect
    (header 8 ^ "\n" ^ payload ^ "\n")
    "truncated record (header promises 8 payload bytes, found 7)";
  expect
    (header 7 ^ "\n" ^ payload ^ "\n")
    "checksum mismatch (record corrupt?): header fnv1a64:0, payload \
     fnv1a64:";
  (* The two lines the writer installs read back; bytes after the
     payload are ignored. *)
  let sealed = Prelude.Envelope.seal fmt [ payload ] in
  let good = sealed.Prelude.Envelope.header in
  Prelude.Envelope.write ~path sealed;
  check Alcotest.string "written as two lines" (good ^ "\n" ^ payload ^ "\n")
    (read_file path);
  write_file path (good ^ "\n" ^ payload ^ "trailing\nmore");
  (match Prelude.Envelope.read fmt ~path with
  | Ok c ->
    check Alcotest.int "version" 2 c.Prelude.Envelope.version;
    check Alcotest.string "payload" payload c.Prelude.Envelope.payload;
    check Alcotest.string "digest"
      (Prelude.Fnv.digest_string payload)
      c.Prelude.Envelope.digest
  | Error e -> Alcotest.fail e);
  (* A missing file is an error too, naming the path. *)
  Sys.remove path;
  match Prelude.Envelope.read fmt ~path with
  | Ok _ -> Alcotest.fail "read a missing file"
  | Error e ->
    check Alcotest.bool "missing file names the path" true (contains e path)

let dataset_2x8 =
  lazy
    (Ml_model.Dataset.generate
       { tiny_scale with Ml_model.Dataset.n_opts = 8 })

let artifact_of d =
  {
    Serve.Artifact.model = Ml_model.Model.train d;
    space = tiny_scale.Ml_model.Dataset.space;
    meta = [ ("suite", Obs.Json.Str "store-test") ];
  }

(* Two domains write one path 300 times each.  No write may raise, the
   file left behind must be one whole write (equal to [write] of a fresh
   path), and no temp file may be left over. *)
let race_writes name write =
  let dir = tmp_dir name in
  Prelude.Envelope.mkdir_p dir;
  let path = Filename.concat dir "target" in
  let reference = Filename.concat dir "reference" in
  write reference;
  let writer () =
    let failed = ref 0 and first = ref "" in
    for _ = 1 to 300 do
      try write path
      with e ->
        if !failed = 0 then first := Printexc.to_string e;
        incr failed
    done;
    (!failed, !first)
  in
  let other = Domain.spawn writer in
  let mine = writer () in
  List.iter
    (fun (failed, first) ->
      if failed > 0 then
        Alcotest.failf "%s: %d of one domain's 300 writes raised, first %s"
          name failed first)
    [ mine; Domain.join other ];
  check Alcotest.bool (name ^ ": the file is one whole write") true
    (read_file path = read_file reference);
  check
    Alcotest.(list string)
    (name ^ ": no temp file left")
    [ "reference"; "target" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  path

let test_concurrent_writers_one_path () =
  let d = Lazy.force dataset_2x8 in
  let artifact = artifact_of d in
  let path =
    race_writes "race_artifact" (fun path -> Serve.Artifact.save ~path artifact)
  in
  (match Serve.Artifact.read ~path with
  | Ok (id, _) ->
    check Alcotest.string "artifact reads back under its id"
      (Serve.Artifact.version_id artifact) id
  | Error e -> Alcotest.fail e);
  let ledger = Registry.Evidence.of_dataset d in
  let path =
    race_writes "race_ledger" (fun path -> Registry.Evidence.write ~path ledger)
  in
  match Registry.Evidence.read ~path with
  | Ok back -> check Alcotest.bool "ledger reads back" true (back = ledger)
  | Error e -> Alcotest.fail e

(* Every truncation point of the header line, with and without the
   payload after it, and every single-byte mutation the payload test in
   test_serve uses, at every header position: [read] answers [Ok] or
   [Error], never an exception. *)
let hostile_headers name ~path read =
  let text = read_file path in
  let nl = String.index text '\n' in
  let header = String.sub text 0 nl in
  let rest = String.sub text nl (String.length text - nl) in
  let ok = ref 0 and rejected = ref 0 in
  let attempt what contents =
    write_file path contents;
    match read () with
    | Ok _ -> incr ok
    | Error _ -> incr rejected
    | exception e ->
      Alcotest.failf "%s: %s raised %s" name what (Printexc.to_string e)
  in
  for i = 0 to nl - 1 do
    let cut = String.sub header 0 i in
    attempt (Printf.sprintf "header cut at %d" i) (cut ^ rest);
    attempt (Printf.sprintf "file cut at %d" i) cut
  done;
  let structural =
    [| '0'; '-'; 'e'; '.'; '"'; ','; ':'; '['; ']'; '{'; '}'; 'n'; ' ' |]
  in
  for i = 0 to nl - 1 do
    let with_byte c =
      let b = Bytes.of_string header in
      Bytes.set b i c;
      attempt
        (Printf.sprintf "header byte %d set to %C" i c)
        (Bytes.to_string b ^ rest)
    in
    with_byte (Char.chr (Char.code header.[i] lxor 0x01));
    with_byte (Char.chr (Char.code header.[i] lxor 0x80));
    Array.iter (fun c -> if c <> header.[i] then with_byte c) structural
  done;
  check Alcotest.bool (name ^ ": most mutations are rejected") true
    (!rejected > !ok)

let test_hostile_headers () =
  with_record "hostile" (fun st key path ->
      hostile_headers "store record" ~path (fun () ->
          ignore (Store.find_run st ~key);
          Store.load_record ~path));
  let dir = tmp_dir "hostile_artifact" in
  Prelude.Envelope.mkdir_p dir;
  let path = Filename.concat dir "m.pcm" in
  Serve.Artifact.save ~path (artifact_of (Lazy.force dataset_2x8));
  hostile_headers "artifact" ~path (fun () -> Serve.Artifact.read ~path)

(* However a payload is cut into chunks, [seal] gives the header of the
   whole and [write] installs the file the one-chunk seal does: at
   every two-way split, and at seeded random splits into up to eight
   chunks, empty ones included. *)
let test_seal_any_split () =
  let fmt =
    {
      Prelude.Envelope.magic = "test-format";
      oldest = 1;
      current = 2;
      noun = "test file";
      kind = "test";
    }
  in
  let dir = tmp_dir "seal_splits" in
  Prelude.Envelope.mkdir_p dir;
  let path = Filename.concat dir "f" in
  let payload =
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("key", Obs.Json.Str "seal");
           ( "rows",
             Obs.Json.List
               (List.init 12 (fun i ->
                    Obs.Json.List
                      (List.init 4 (fun j ->
                           Obs.Json.Float (float_of_int (i * j) /. 7.0))))) );
         ])
  in
  let n = String.length payload in
  let whole = Prelude.Envelope.seal fmt [ payload ] in
  check Alcotest.string "digest" (Prelude.Fnv.digest_string payload)
    whole.Prelude.Envelope.digest;
  check Alcotest.int "bytes" n whole.Prelude.Envelope.bytes;
  Prelude.Envelope.write ~path whole;
  let file = read_file path in
  check Alcotest.string "one chunk: the header line, the payload line"
    (whole.Prelude.Envelope.header ^ "\n" ^ payload ^ "\n")
    file;
  let same what chunks =
    let sealed = Prelude.Envelope.seal fmt chunks in
    if sealed.Prelude.Envelope.header <> whole.Prelude.Envelope.header then
      Alcotest.failf "%s: header %s" what sealed.Prelude.Envelope.header;
    Prelude.Envelope.write ~path sealed;
    if read_file path <> file then Alcotest.failf "%s: the file differs" what
  in
  for i = 0 to n do
    same
      (Printf.sprintf "split at %d" i)
      [ String.sub payload 0 i; String.sub payload i (n - i) ]
  done;
  let rng = Random.State.make [| 22 |] in
  for trial = 1 to 200 do
    let cuts =
      List.sort compare
        (List.init (Random.State.int rng 8) (fun _ ->
             Random.State.int rng (n + 1)))
    in
    let rec pieces from = function
      | [] -> [ String.sub payload from (n - from) ]
      | c :: rest -> String.sub payload from (c - from) :: pieces c rest
    in
    same (Printf.sprintf "random split %d" trial) (pieces 0 cuts)
  done;
  match Prelude.Envelope.read fmt ~path with
  | Ok c -> check Alcotest.string "reads back" payload c.Prelude.Envelope.payload
  | Error e -> Alcotest.fail e

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "store"
    [
      ( "digests",
        [
          quick "fnv test vectors" test_fnv_vectors;
          quick "stable and distinct" test_digests_stable_and_distinct;
        ] );
      ( "codec",
        [
          quick "export/import round-trip" test_export_import_roundtrip;
          quick "import rejects malformed" test_import_rejects_malformed;
        ] );
      ( "records",
        [
          quick "put/find round-trip" test_store_roundtrip;
          quick "flipped byte" test_corrupt_flipped_byte;
          quick "truncated" test_corrupt_truncated;
          quick "empty file" test_corrupt_empty;
          quick "future version" test_corrupt_future_version;
          quick "v1 record still loads" test_v1_record_still_loads;
          quick "wrong magic" test_corrupt_wrong_magic;
          quick "key mismatch" test_corrupt_key_mismatch;
          quick "concurrent writers" test_concurrent_writers;
          quick "negative payload length" test_corrupt_negative_length;
        ] );
      ( "gc",
        [
          quick "oldest first, size bound" test_gc_oldest_first;
          quick "dry run deletes nothing" test_gc_dry_run_deletes_nothing;
        ] );
      ( "profile cache",
        [
          quick "RAM tier bounded" test_profile_cache_ram_bound;
          quick "disk tier read-through" test_profile_cache_disk_tier;
        ] );
      ( "warm dataset",
        [ quick "zero interps, bit-identical" test_warm_dataset_zero_interps ] );
      ( "envelope",
        [
          quick "checks run in order" test_envelope_check_order;
          quick "concurrent writers of one path"
            test_concurrent_writers_one_path;
          quick "hostile headers: Ok or Error" test_hostile_headers;
          quick "seal: any split writes the same file" test_seal_any_split;
        ] );
    ]
