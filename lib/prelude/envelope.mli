(** Checksummed two-line files, and the atomic file IO beneath them.

    The evaluation store's records and the model artifacts ([.pcm])
    share one format: a JSON header line carrying the format's magic,
    its version, the payload's FNV-1a 64 checksum ({!Fnv.tagged_string})
    and the payload's byte length, then the payload line:

    {v
    {"magic":"portopt-store","version":2,"checksum":"fnv1a64:...","bytes":N}
    {"key":"...","run":{...}}
    v}

    {!read} checks the header, the length and the checksum before the
    caller parses a byte of the payload, so truncation and corruption
    are caught without parsing.  Each caller keeps only its own payload
    codec.

    Writes go through {!write_atomic}: a unique temp name beside the
    target ([<path>.<pid>.<seq>.tmp]), then a rename, so a crash never
    leaves a half-written file under a live name and concurrent writers
    of one path (threads, domains or processes) never collide —
    whichever rename lands last wins. *)

type format = {
  magic : string;  (** The header's ["magic"] field. *)
  oldest : int;  (** The oldest version {!read} accepts. *)
  current : int;  (** The version {!header} writes; the newest accepted. *)
  noun : string;
      (** What one file is, in errors: ["store record"] gives "not a
          portopt store record". *)
  kind : string;
      (** The format's short name, in errors: ["store"] gives
          "unsupported store version". *)
}
(** One file format.  Each owner defines its format as a constant. *)

type sealed = private {
  header : string;
      (** The header line at the format's [current] version, without its
          newline. *)
  chunks : string list;  (** The payload, in order. *)
  digest : string;
      (** The payload's FNV-1a 64 digest, 16 hex digits: the one the
          header's checksum carries. *)
  bytes : int;  (** The payload's byte length. *)
}
(** A payload ready to write, with its header. *)

val seal : format -> string list -> sealed
(** [seal fmt chunks] seals the payload that is the concatenation of
    [chunks], hashing them in one pass without joining them: every
    split of one payload seals to the same header and {!write}s the
    same file. *)

type contents = {
  version : int;  (** The header's version, within the format's range. *)
  digest : string;
      (** The payload's FNV-1a 64 digest, 16 hex digits, verified
          against the header's checksum. *)
  payload : string;  (** Exactly the header's byte count. *)
}

val read : format -> path:string -> (contents, string) result
(** Strict read of a whole file.  Never raises: every failure is an
    [Error] with [path] prefixed (an unreadable file gives the system's
    message, which names the path).  The checks run in this order: no
    header line, malformed header, wrong magic, version outside
    [oldest]..[current], negative length, truncated payload, checksum
    mismatch.  Bytes after the payload are ignored.  The payload is
    read straight into the string returned, never through a copy of
    the whole file. *)

val write : path:string -> sealed -> unit
(** [write ~path sealed] installs the header line and the payload line
    atomically ({!write_atomic}). *)

val read_file : string -> (string, string) result
(** The whole file, or [Error] with the system's message. *)

val write_atomic : string -> string list -> unit
(** [write_atomic path chunks] writes [chunks] in order to a unique temp
    name beside [path] and renames it over [path].  On failure the temp
    file is removed and the exception re-raised; [path] is untouched. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; a concurrent creator is
    not an error. *)
