(** Crash-safe content-addressed evaluation store.

    The trace-once/model-many engine pays one expensive axis: compiling
    and interpreting each unique (program, semantic optimisation
    setting).  This store persists those interpreter profiles on disk,
    keyed by content digests, so every downstream consumer — dataset
    generation, cross-validation, training, the CLI — becomes an
    incremental computation over deltas: a warm rerun reads every
    profile back bit-identically and performs {e zero} interpretations.

    {b Keys.}  A record's key concatenates three {!Prelude.Fnv} digests:
    the pretty-printed program IR, the canonical optimisation setting
    ({!Passes.Flags.cache_key}) and the pass-pipeline fingerprint
    ({!Passes.Driver.fingerprint}).  Changing the program, asking for a
    semantically different setting, or rebuilding with a different
    pipeline therefore misses instead of serving a stale profile.

    {b Records} are {!Prelude.Envelope} files, the format model
    artifacts use too: a JSON header line carrying magic
    (["portopt-store"]), version (this build writes 2 and reads 1 and
    2), FNV-1a 64 checksum and payload byte length, then one JSON
    payload line holding the key and the run ({!Sim.Xtrem.export}).  They are
    written to a unique temporary name and atomically renamed, so a
    crash mid-write never leaves a half-written record under a live
    name.  Loads are strict, with distinct error cases for truncation,
    corruption, wrong magic, unsupported versions, a negative length
    and key mismatches; readers treat any unreadable record as a
    miss.

    {b GC} is LRU-style: every hit touches the record's mtime, and
    {!gc} deletes oldest-first until the store fits the byte bound.  It
    only ever unlinks whole files, so it cannot corrupt a readable
    record.

    Telemetry: [store.{hits,misses,writes,evictions,errors}] counters
    and [store.{bytes,entries}] gauges in {!Obs.Metrics}, plus
    [store.*] trace events at debug level. *)

(** {1 Digests and keys} *)

val program_digest : Ir.Types.program -> string
(** Digest of the pretty-printed IR ({!Ir.Pretty.program}) — stable
    across processes, sensitive to any semantic change. *)

val setting_digest : Passes.Flags.setting -> string
(** Digest of {!Passes.Flags.cache_key}: equal iff the settings are
    semantically equal. *)

val profile_key : program_digest:string -> setting:Passes.Flags.setting -> string
(** ["<pipeline fp>-<program digest>-<setting digest>"] — the key a
    profile record is stored under. *)

(** {1 The store} *)

type t

val default_dir : string
(** [".portopt-store"] — the CLI's default for [--store] paths given as
    a bare flag; gitignored. *)

val open_ : dir:string -> t
(** Open (creating directories as needed) and scan the existing records
    once for the entry/byte gauges. *)

val dir : t -> string

val find_run : t -> key:string -> Sim.Xtrem.run option
(** Read the record back, touch its mtime (LRU) and count a hit.  A
    missing, unreadable or mismatched record counts a miss (unreadable
    and mismatched ones also [store.errors]) and returns [None]; the
    caller recomputes.  {!put_run} leaves an existing file in place, so
    an unreadable record stays, and keeps missing, until {!gc} evicts
    it or it is removed. *)

val put_run : t -> key:string -> Sim.Xtrem.run -> unit
(** Serialise and atomically install the record.  Re-putting an
    existing key only touches its mtime.  Safe under concurrent
    writers, in-process (mutex) and across processes (unique temp names
    plus atomic rename). *)

type stats = { entries : int; bytes : int }

val stats : t -> stats
(** Fresh scan of the object tree (also refreshes the gauges). *)

val gc : ?dry_run:bool -> t -> max_bytes:int -> int * stats
(** Delete least-recently-used records (and any orphaned temp files)
    until the store fits [max_bytes]; returns the number of records
    evicted and the remaining stats.  Never corrupts a surviving
    record.  With [~dry_run:true] (default false) nothing is deleted or
    touched: the returned eviction count and stats describe what a real
    run {e would} do, so operators can preview a bound before
    committing to it. *)

type verify_report = {
  checked : int;
  errors : (string * string) list;  (** (path, reason), path-sorted. *)
}

val verify : t -> verify_report
(** Strict-load every record and report each failure with its distinct
    reason (truncation, checksum mismatch, wrong magic, future version,
    malformed payload, key mismatch). *)

(** {1 Record IO (exposed for [verify], smoke tests and negatives)} *)

val load_record : path:string -> (string * Sim.Xtrem.run, string) result
(** [(key, run)] from one record file; [Error] carries the distinct
    failure reason prefixed by the path. *)

val profile : ?store:t -> setting:Passes.Flags.setting -> Ir.Types.program
  -> Sim.Xtrem.run
(** One-shot read-through used by the CLI: look the profile up in
    [store] (when given), else compile and interpret via
    {!Sim.Xtrem.profile_of} and write the record back.  The returned
    run always carries the requested [setting]. *)

(** {1 Two-tier read-through profile cache} *)

type store := t

(** The profile cache behind {!Ml_model.Dataset}: an in-RAM
    {!Prelude.Lru} tier bounded by [ram_capacity] over an optional
    on-disk store tier, shared across worker domains behind one mutex.
    The expensive compute runs outside the lock and nothing records
    keys in flight, so two domains that miss on one key both compute
    it; values are deterministic, so either result is the same
    profile.  Callers that must interpret each key once resolve it
    from one domain, as [Ml_model.Dataset.profile] does by giving each
    program's settings to one task. *)
module Profile_cache : sig
  type t

  val create : ?ram_capacity:int -> ?disk:store -> unit -> t
  (** [ram_capacity] defaults to 4096 entries; its occupancy is
      exported as the [store.ram.entries] gauge. *)

  val find_or_compute :
    t ->
    program_digest:string ->
    setting:Passes.Flags.setting ->
    (unit -> Sim.Xtrem.run) ->
    Sim.Xtrem.run
  (** RAM tier, then disk tier, then [compute] (outside the lock; the
      result is written through to both tiers).  The returned run
      always carries the requested [setting]. *)

  val preload :
    t ->
    program_digest:string ->
    setting:Passes.Flags.setting ->
    Sim.Xtrem.run ->
    unit
  (** Seed both tiers with an externally computed run — how cluster
      results are merged so the local pipeline then reruns as pure
      cache hits.  Idempotent; on a race the first admission wins (the
      values are deterministic and equal). *)

  val ram_size : t -> int
  val disk : t -> store option
end
