(** Versioned, checksummed on-disk model artifacts.

    A `.pcm` (portable compiler model) file freezes one trained
    {!Ml_model.Model} — per-pair multinomial distributions, normalised
    feature rows, the feature scaler, K/beta and (since version 2) a
    VP-tree over the rows — as a {!Prelude.Envelope} file, the format
    store records use too: a header line carrying magic
    (["portopt-model"]), schema version, FNV-1a 64 checksum and payload
    byte length, then the JSON payload line.  Floats round-trip
    bit-exactly, so a loaded model predicts bit-identically to the one
    that was saved; loading is pure deserialisation and runs orders of
    magnitude faster than retraining.  [save] writes version 2;
    version-1 files (no tree) still load, and the deterministic tree is
    built when such a model is next encoded. *)

type t = {
  model : Ml_model.Model.t;
  space : Ml_model.Features.space;
      (** Feature space the model was trained in — the server needs it
          to assemble query vectors from counters + descriptors. *)
  meta : (string * Obs.Json.t) list;
      (** Provenance (seed, scale, git, creation time); echoed by the
          server's health endpoint, never interpreted. *)
}

val provenance :
  ?store_dir:string ->
  programs_digest:string ->
  settings_digest:string ->
  uarchs_digest:string ->
  unit ->
  (string * Obs.Json.t) list
(** Store-provenance meta fields ([store], [programs_digest],
    [settings_digest], [uarchs_digest]) recorded by [portopt train] so
    a server can tell which evaluation store matches the model and
    warm-start from it (see {!Ml_model.Dataset.provenance_digests}). *)

val objective : t -> Objective.Spec.t
(** The objective the model was trained for, read from the ["objective"]
    meta field.  [portopt train] records the field only for non-default
    specs (keeping cycles-trained artifacts byte-identical to
    pre-objective ones), so absence reads as
    {!Objective.Spec.default}. *)

val encode : t -> Prelude.Envelope.sealed
(** The sealed payload [save] writes — exposed so the model registry
    ([Registry]) can content-address artifacts (by its [digest]) and
    write object files itself.  The payload is printed straight into
    chunks of about 64 KiB, never through a {!Obs.Json.t} tree and never
    joined into one string. *)

val version_id : t -> string
(** The payload's FNV-1a 64 digest as 16 hex characters.  Equal iff the
    payload lines are byte-identical, which makes it the registry's
    version id.  It re-encodes the whole model and hashes the chunks: a
    loaded artifact's id comes from {!read} instead. *)

val save : path:string -> t -> unit
(** Serialise atomically: write to a unique temp name beside [path],
    then rename ({!Prelude.Envelope.write}), so concurrent saves of one
    path never collide. *)

val read : path:string -> (string * t, string) result
(** Strict load, returning the artifact's version id with it: rejects
    missing files, truncation, checksum mismatches, wrong magic or
    schema version, malformed JSON and any structural invariant
    violation ({!Ml_model.Model.import}), each with a distinct
    human-readable message prefixed by the path.  The payload is
    decoded in one pass straight into the model's arrays.

    For a version-2 file the id is the digest the header's checksum was
    verified against, so for every file [save] or the registry writes
    it equals [version_id] of the decoded artifact without re-encoding
    it.  A version-1 file is re-encoded once: its id is [version_id] of
    the decoded artifact. *)

val load : path:string -> (t, string) result
(** {!read} without the id. *)
