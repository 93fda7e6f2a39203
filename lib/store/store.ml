(** Crash-safe content-addressed evaluation store — see store.mli for
    the design overview (keys, record format, GC, telemetry). *)

module J = Obs.Json

(* v2 added the static post-pipeline instruction count ("size") to the
   run payload so multi-objective training reads warm with zero
   recompiles; v1 records (no size) still load, the size recomputed by
   the consumer on that miss. *)
let format =
  {
    Prelude.Envelope.magic = "portopt-store";
    oldest = 1;
    current = 2;
    noun = "store record";
    kind = "store";
  }

let default_dir = ".portopt-store"

(* ---- digests and keys ------------------------------------------------- *)

let program_digest p = Prelude.Fnv.digest_string (Ir.Pretty.program p)

let setting_digest s = Prelude.Fnv.digest_string (Passes.Flags.cache_key s)

let profile_key ~program_digest ~setting =
  Passes.Driver.fingerprint ^ "-" ^ program_digest ^ "-"
  ^ setting_digest setting

(* ---- telemetry -------------------------------------------------------- *)

let m_hits = Obs.Metrics.counter "store.hits"
let m_misses = Obs.Metrics.counter "store.misses"
let m_writes = Obs.Metrics.counter "store.writes"
let m_evictions = Obs.Metrics.counter "store.evictions"
let m_errors = Obs.Metrics.counter "store.errors"
let g_bytes = Obs.Metrics.gauge "store.bytes"
let g_entries = Obs.Metrics.gauge "store.entries"

(* ---- layout ----------------------------------------------------------- *)

type t = {
  root : string;
  mutex : Mutex.t;  (** Serialises writes and the entry/byte tallies. *)
  mutable entries : int;
  mutable bytes : int;
}

type stats = { entries : int; bytes : int }

let dir t = t.root
let objects_dir root = Filename.concat root "objects"
let record_suffix = ".rec"

(* Records live two levels deep, fanned out on the first two key
   characters so no single directory grows unboundedly. *)
let object_path root key =
  let sub = if String.length key >= 2 then String.sub key 0 2 else "xx" in
  Filename.concat (Filename.concat (objects_dir root) sub)
    (key ^ record_suffix)

let key_of_path path =
  Filename.chop_suffix (Filename.basename path) record_suffix

(* All record files under [root], one stat each: (path, mtime, size).
   Temp-file leftovers from crashed writers are listed separately so GC
   can sweep them. *)
let scan root =
  let records = ref [] and temps = ref [] in
  let obj = objects_dir root in
  if Sys.file_exists obj && Sys.is_directory obj then
    Array.iter
      (fun sub ->
        let subdir = Filename.concat obj sub in
        if Sys.is_directory subdir then
          Array.iter
            (fun name ->
              let path = Filename.concat subdir name in
              match Unix.stat path with
              | exception Unix.Unix_error _ -> ()
              | st ->
                if Filename.check_suffix name record_suffix then
                  records :=
                    (path, st.Unix.st_mtime, st.Unix.st_size) :: !records
                else temps := path :: !temps)
            (Sys.readdir subdir))
      (Sys.readdir obj);
  (!records, !temps)

let publish (t : t) =
  Obs.Metrics.set g_entries (float_of_int t.entries);
  Obs.Metrics.set g_bytes (float_of_int t.bytes)

let open_ ~dir =
  Prelude.Envelope.mkdir_p (objects_dir dir);
  let records, _ = scan dir in
  let t =
    {
      root = dir;
      mutex = Mutex.create ();
      entries = List.length records;
      bytes = List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 records;
    }
  in
  publish t;
  t

let stats t =
  let records, _ = scan t.root in
  Mutex.lock t.mutex;
  t.entries <- List.length records;
  t.bytes <- List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 records;
  publish t;
  let s = { entries = t.entries; bytes = t.bytes } in
  Mutex.unlock t.mutex;
  s

(* ---- record IO -------------------------------------------------------- *)

let ( let* ) = Result.bind

let load_record ~path =
  let* { Prelude.Envelope.payload; _ } = Prelude.Envelope.read format ~path in
  Result.map_error (fun e -> path ^ ": " ^ e)
    (let* j =
       Result.map_error (( ^ ) "malformed payload: ") (J.of_string payload)
     in
     let* key = J.field "key" J.to_str j in
     let* run_j = J.field "run" Option.some j in
     let* run =
       Result.map_error (( ^ ) "malformed run: ") (Sim.Xtrem.import run_j)
     in
     Ok (key, run))

(* Touch a record's mtime so GC's oldest-first eviction approximates
   LRU.  Best-effort: a raced eviction just means the next lookup
   misses and recomputes. *)
let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let find_run t ~key =
  let path = object_path t.root key in
  if not (Sys.file_exists path) then begin
    Obs.Metrics.add m_misses 1;
    None
  end
  else
    match load_record ~path with
    | Ok (k, run) when k = key ->
      touch path;
      Obs.Metrics.add m_hits 1;
      Obs.Span.event ~level:Obs.Trace.Debug "store.hit"
        [ ("key", J.Str key) ];
      Some run
    | Ok (k, _) ->
      Obs.Metrics.add m_errors 1;
      Obs.Metrics.add m_misses 1;
      Obs.Span.event ~level:Obs.Trace.Debug "store.key_mismatch"
        [ ("key", J.Str key); ("payload_key", J.Str k) ];
      None
    | Error e ->
      Obs.Metrics.add m_errors 1;
      Obs.Metrics.add m_misses 1;
      Obs.Span.event ~level:Obs.Trace.Debug "store.error"
        [ ("key", J.Str key); ("error", J.Str e) ];
      None

let put_run t ~key run =
  let path = object_path t.root key in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if Sys.file_exists path then touch path
      else begin
        Prelude.Envelope.mkdir_p (Filename.dirname path);
        let payload =
          J.to_string
            (J.Obj [ ("key", J.Str key); ("run", Sim.Xtrem.export run) ])
        in
        let sealed = Prelude.Envelope.seal format [ payload ] in
        Prelude.Envelope.write ~path sealed;
        let bytes = String.length sealed.header + sealed.bytes + 2 in
        t.entries <- t.entries + 1;
        t.bytes <- t.bytes + bytes;
        publish t;
        Obs.Metrics.add m_writes 1;
        Obs.Span.event ~level:Obs.Trace.Debug "store.write"
          [ ("key", J.Str key); ("bytes", J.Int bytes) ]
      end)

(* ---- maintenance ------------------------------------------------------ *)

let gc ?(dry_run = false) t ~max_bytes =
  if max_bytes < 0 then invalid_arg "Store.gc: max_bytes must be >= 0";
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let records, temps = scan t.root in
      (* Orphaned temp files are crash debris: always swept — except in
         a dry run, which must not touch the filesystem at all. *)
      if not dry_run then
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) temps;
      let total =
        List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 records
      in
      let by_age =
        List.sort
          (fun (pa, ma, _) (pb, mb, _) ->
            match Float.compare ma mb with
            | 0 -> String.compare pa pb
            | c -> c)
          records
      in
      let evicted = ref 0 and remaining = ref total in
      List.iter
        (fun (path, _, sz) ->
          if !remaining > max_bytes then
            if dry_run then begin
              incr evicted;
              remaining := !remaining - sz
            end
            else (
              try
                Sys.remove path;
                incr evicted;
                remaining := !remaining - sz
              with Sys_error _ -> ()))
        by_age;
      if not dry_run then begin
        t.entries <- List.length records - !evicted;
        t.bytes <- !remaining;
        publish t;
        Obs.Metrics.add m_evictions !evicted
      end;
      Obs.Span.event ~level:Obs.Trace.Debug "store.gc"
        [
          ("evicted", J.Int !evicted);
          ("remaining_bytes", J.Int !remaining);
          ("dry_run", J.Bool dry_run);
        ];
      ( !evicted,
        { entries = List.length records - !evicted; bytes = !remaining } ))

type verify_report = {
  checked : int;
  errors : (string * string) list;
}

let verify t =
  let records, _ = scan t.root in
  let paths = List.sort compare (List.map (fun (p, _, _) -> p) records) in
  let errors =
    List.filter_map
      (fun path ->
        match load_record ~path with
        | Error e -> Some (path, e)
        | Ok (key, _) ->
          if key <> key_of_path path then
            Some
              ( path,
                Printf.sprintf "key mismatch: payload says %S, path says %S"
                  key (key_of_path path) )
          else None)
      paths
  in
  { checked = List.length paths; errors }

(* ---- one-shot read-through (CLI) -------------------------------------- *)

let profile ?store ~setting program =
  match store with
  | None -> Sim.Xtrem.profile_of ~setting program
  | Some t -> (
    let key = profile_key ~program_digest:(program_digest program) ~setting in
    match find_run t ~key with
    | Some r -> { r with Sim.Xtrem.setting }
    | None ->
      let r = Sim.Xtrem.profile_of ~setting program in
      put_run t ~key r;
      r)

(* ---- two-tier read-through cache -------------------------------------- *)

type store_t = t

module Profile_cache = struct
  type t = {
    disk : store_t option;
    ram : (string, Sim.Xtrem.run) Prelude.Lru.t;
    mutex : Mutex.t;
  }

  let m_ram_hits = Obs.Metrics.counter "store.ram.hits"
  let m_ram_misses = Obs.Metrics.counter "store.ram.misses"
  let g_ram_entries = Obs.Metrics.gauge "store.ram.entries"

  let create ?(ram_capacity = 4096) ?disk () =
    {
      disk;
      ram = Prelude.Lru.create ~capacity:ram_capacity;
      mutex = Mutex.create ();
    }

  let disk t = t.disk

  let ram_size t =
    Mutex.lock t.mutex;
    let n = Prelude.Lru.size t.ram in
    Mutex.unlock t.mutex;
    n

  (* Install [run] in the RAM tier; on an insertion race the first
     winner is kept (the values are deterministic and equal, so either
     choice returns the same profile). *)
  let admit t key run =
    Mutex.lock t.mutex;
    let kept =
      match Prelude.Lru.get t.ram key with
      | Some winner -> winner
      | None ->
        Prelude.Lru.put t.ram key run;
        run
    in
    Obs.Metrics.set g_ram_entries (float_of_int (Prelude.Lru.size t.ram));
    Mutex.unlock t.mutex;
    kept

  (* Seed both tiers with an externally computed run (a cluster worker's
     result, say) so subsequent lookups are pure hits.  The stored value
     is the deterministic profile; lookups rewrite the setting. *)
  let preload t ~program_digest ~setting run =
    let key = profile_key ~program_digest ~setting in
    ignore (admit t key run);
    Option.iter (fun d -> put_run d ~key run) t.disk

  let find_or_compute t ~program_digest ~setting compute =
    let key = profile_key ~program_digest ~setting in
    Mutex.lock t.mutex;
    let ram_hit = Prelude.Lru.get t.ram key in
    Mutex.unlock t.mutex;
    match ram_hit with
    | Some r ->
      Obs.Metrics.add m_ram_hits 1;
      { r with Sim.Xtrem.setting }
    | None -> (
      Obs.Metrics.add m_ram_misses 1;
      match Option.bind t.disk (fun d -> find_run d ~key) with
      | Some r ->
        let r = admit t key r in
        { r with Sim.Xtrem.setting }
      | None ->
        (* The expensive path runs outside the lock so other domains
           keep hitting the cache while this one interprets. *)
        let r = compute () in
        let r = admit t key r in
        Option.iter (fun d -> put_run d ~key r) t.disk;
        { r with Sim.Xtrem.setting })
end
