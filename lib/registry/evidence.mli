(** Training evidence: the raw material the model registry versions and
    the incremental trainer folds.

    One {!record} is everything training needs to know about one
    (program, microarchitecture) pair — who it is (content digests),
    its raw feature vector at -O3, and the good set of optimisation
    settings selected by pricing ({!Ml_model.Dataset}'s top
    [good_fraction]).  A {e ledger} is an ordered list of records,
    serialised one JSON object per line; the registry stores the exact
    ledger that produced each published version, so every model's
    training data is replayable and a child version's ledger is its
    parent's with the fresh records appended — an append-only
    provenance log.

    Records for the same pair may repeat across a ledger (fresh
    evidence for a pair already trained on): {!Refit} merges them at
    the count level, and the freshest feature vector wins. *)

type record = {
  prog : string;  (** Program name, for humans ({!Workloads.Spec.name}). *)
  prog_digest : string;  (** Content digest ({!Store.program_digest}). *)
  uarch_key : string;  (** {!Uarch.Config.cache_key} of the pair's uarch. *)
  features_raw : float array;  (** Unnormalised x = (c, d) at -O3. *)
  good : Passes.Flags.setting array;  (** The pair's good set, >= 1. *)
}

val pair_key : record -> string
(** [prog_digest ^ "|" ^ uarch_key] — the identity records merge on. *)

val of_dataset : Ml_model.Dataset.t -> record list
(** One record per dataset pair, in the dataset's row-major pair order
    — so a model refit from this ledger is bit-identical to
    {!Ml_model.Model.train} on the dataset (asserted by test). *)

val to_json : record -> Obs.Json.t
val of_json : Obs.Json.t -> (record, string) result
(** Strict: validates every good setting ({!Passes.Flags.validate}),
    rejects non-finite features and empty good sets. *)

val write : path:string -> record list -> unit
(** Serialise as JSONL, atomically: a unique temp name beside [path],
    then a rename ({!Prelude.Envelope.write_atomic}), so concurrent
    writers of one ledger never collide. *)

val read : path:string -> (record list, string) result
(** Strict parse; errors carry the path and 1-based line number. *)

val digest : record list -> string
(** FNV-1a 64 hex digest of the canonical JSONL rendering — the
    ledger's content identity, recorded in registry lineage. *)

val programs_digest : record list -> string
(** Combined digest of the distinct program digests, first-seen order —
    same construction as {!Ml_model.Dataset.provenance_digests}. *)

val uarchs_digest : record list -> string
(** Combined digest of the distinct microarchitecture keys. *)

val space : record list -> (Ml_model.Features.space, string) result
(** The feature space the ledger was extracted in, inferred from the
    feature dimension (base and extended differ); [Error] on an empty
    ledger or inconsistent dimensions. *)
