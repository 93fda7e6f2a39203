(** Versioned model registry: content-addressed `.pcm` artifacts with
    lineage, channels, online refit and garbage collection.

    Layout, mirroring {!Store}'s conventions:

    {v
    .portopt-registry/
      objects/<id>.pcm       # the artifact, id = FNV-1a 64 of its payload
      lineage/<id>.json      # one-line lineage record per version
      evidence/<id>.jsonl    # the exact ledger that trained the version
      channels/<name>        # atomic pointer files: one id per line
    v}

    A version id {e is} the artifact's content digest
    ({!Serve.Artifact.version_id}), so byte-identity questions reduce to
    id equality: an incremental refit that reproduces a cold retrain
    bit-for-bit publishes the {e same} version — content addressing
    dedupes it.  Channel pointers ([latest], [stable], [candidate], ...)
    are single-line files updated by atomic rename, so a concurrent
    reader (the serving layer's registry watch) sees either the old or
    the new pointer, never a torn one.

    {!publish} is the only trainer: it folds an evidence ledger — the
    parent's, when refitting, plus the fresh records — through
    {!Refit} and freezes the result, recording provenance (parent
    version, ledger digest, program/uarch digests, trainer params,
    creation time — pinned by the caller, typically from
    [SOURCE_DATE_EPOCH]) in the lineage record.  {!gc} deletes only
    versions unreachable from every channel pointer through lineage
    parent chains. *)

module Evidence = Evidence
module Refit = Refit

type t

val default_dir : string
(** [".portopt-registry"]. *)

val open_ : dir:string -> t
(** Create the directory skeleton if needed and open the registry. *)

val dir : t -> string

(** {2 Versions and lineage} *)

type lineage = {
  l_id : string;  (** Version id: 16 hex chars, the payload digest. *)
  l_parent : string option;  (** Version this one was refit from. *)
  l_created : float;  (** Creation wall clock (caller-pinned). *)
  l_k : int;
  l_beta : float;
  l_space : string;  (** ["base"] or ["extended"]. *)
  l_pairs : int;  (** Distinct (program, uarch) pairs trained on. *)
  l_records : int;  (** Evidence records folded (>= pairs). *)
  l_evidence_digest : string;  (** {!Evidence.digest} of the ledger. *)
  l_programs_digest : string;
  l_uarchs_digest : string;
  l_objective : string;
      (** {!Objective.Spec.to_string} form of the objective the version
          was trained under.  Written to the lineage file (and the
          artifact meta) only when non-default, so pre-objective lineage
          records load as ["cycles"] and cycles versions stay
          byte-identical. *)
}

val publish :
  ?k:int ->
  ?beta:float ->
  ?parent:string ->
  ?channel:string ->
  ?objective:Objective.Spec.t ->
  created:float ->
  t ->
  Evidence.record list ->
  (lineage, string) result
(** Train a version from evidence and store it.  Without [parent], a
    cold fit of the given records.  With [parent] (a version id,
    prefix, or channel name), an {e incremental refit}: the parent's
    ledger is folded first, the given records on top, and the stored
    ledger is the concatenation — bit-identical to a cold fit on the
    union, so both derivations produce the same version id.
    Republishing existing content is a no-op for the object, ledger and
    lineage (first record wins).  Always moves [latest]; also moves
    [channel] when given.  Returns the stored lineage. *)

val resolve : t -> string -> (string * Serve.Artifact.t, string) result
(** Load a version by channel name, full id, or unambiguous id prefix
    (>= 4 hex chars).  Returns the resolved id and the loaded artifact,
    checksum-verified by {!Serve.Artifact.read}.  An object whose
    verified digest differs from the id it is filed under is an error
    naming both: a copied or renamed object is never served under a
    name that is not its content. *)

val resolve_id : t -> string -> (string, string) result
(** {!resolve} without loading the artifact. *)

val source :
  t ->
  stable_channel:string ->
  candidate_channel:string option ->
  unit ->
  (Serve.Server.source, string) result
(** [source t ~stable_channel ~candidate_channel] is the model source of
    [serve --registry]: each call resolves the stable (and optional
    candidate) channel pointers and answers [Unchanged] while neither
    moved since the last [Swap] it returned.  Otherwise it swaps in
    both arms, each with the id {!resolve} verified it against, but
    {!resolve}s only ids it does not already hold: an arm whose pointer
    did not move, or a promote that points stable at the held
    candidate, reuses the artifact it holds. *)

val lineage : t -> string -> (lineage, string) result
(** The lineage record of a version (by exact id). *)

val versions : t -> (lineage list, string) result
(** Every version's lineage, sorted by (creation time, id).  Errors on
    a corrupt lineage record rather than skipping it. *)

val evidence : t -> string -> (Evidence.record list, string) result
(** The exact ledger that trained a version (by exact id). *)

val object_path : t -> string -> string
(** On-disk path of a version's artifact — for [cmp]-style byte
    assertions and [serve --model] interop; no existence check. *)

(** {2 Channels} *)

val channel : t -> string -> string option
(** The id a channel points at, if the pointer exists and is
    well-formed. *)

val channels : t -> (string * string) list
(** All (name, id) pointers, sorted by name; malformed pointer files
    are omitted. *)

val set_channel : t -> name:string -> id:string -> (unit, string) result
(** Atomically point [name] at an existing version.  Errors on an
    invalid name or a missing version — a pointer can never be created
    dangling. *)

(** {2 Garbage collection} *)

val gc : ?dry_run:bool -> t -> (string list * int, string) result
(** Delete every version unreachable from any channel pointer through
    lineage parent chains; returns (deleted ids, kept count).  The
    closure is conservative: a corrupt lineage record in a live chain
    or a dangling channel pointer aborts with an error instead of
    risking a reachable version.  [dry_run] reports without
    deleting. *)
