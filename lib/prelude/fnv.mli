(** Streaming FNV-1a 64-bit digests.

    The repository's one non-cryptographic fingerprint, shared by the
    model-artifact checksums ({!Serve.Artifact}) and the content-addressed
    evaluation store ({!Store}): tiny, dependency-free and plenty to
    detect the bit-rot, truncation and stale-key mixups a cache file can
    suffer.  Not a cryptographic signature.

    A digest is built incrementally — feed strings, chars and ints in any
    mix — so large inputs (pretty-printed program IR, JSON payloads)
    never need an intermediate concatenation.  [add_int] feeds the
    decimal rendering followed by a [';'] separator, so adjacent ints
    cannot alias ([add_int 1; add_int 23] differs from
    [add_int 12; add_int 3]). *)

type t

val create : unit -> t
(** A fresh digest at the FNV-1a offset basis. *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit

val add_line : t -> string -> pos:int -> len:int -> int
(** [add_line t s ~pos ~len] feeds [s] from [pos], at most [len] bytes,
    stopping before the first newline, and returns the number of bytes
    fed: the digest and the line-end search in one pass.  Raises
    [Invalid_argument] when [pos] and [len] do not name a substring of
    [s]. *)

val add_int : t -> int -> unit
(** Feed the decimal rendering of the int plus a [';'] separator. *)

val to_hex : t -> string
(** Current digest as 16 lowercase hex characters.  The digest remains
    usable; feeding more input evolves it further. *)

val tagged : t -> string
(** ["fnv1a64:<hex>"] — the checksum rendering used in file headers. *)

val digest_string : string -> string
(** One-shot [to_hex] of a single string. *)

val tagged_string : string -> string
(** One-shot [tagged] of a single string. *)
