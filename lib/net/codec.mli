(** Dual-format wire framing: newline-JSON and length-prefixed binary.

    Every frame carries one UTF-8 payload (in practice a JSON document — the
    binary format changes the *framing*, not the payload semantics, which is
    what keeps the byte-identity guarantees of the serving and cluster planes
    intact).  The two framings coexist on one connection and are
    distinguished by the first byte of each frame:

    - [0xB1 len:u32be payload] — binary frame.  [len] is the payload length;
      lengths outside [\[1, max_frame\]] are rejected with {!Bad_length}
      before any payload is buffered.
    - anything else — newline-JSON: the frame is all bytes up to the next
      ['\n'] (exclusive).  JSON documents start with ['{'], so the magic
      byte can never be confused with a JSON line.

    Negotiation is implicit ("hello time"): a server latches the format of
    the first frame a client sends and replies in kind, so JSON-only debug
    clients (including a human with a socket and a keyboard) interoperate
    with binary-preferring ones on the same listener. *)

type mode = Json | Binary

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

val magic : char
(** ['\xB1'] — first byte of a binary frame. *)

val header_len : int
(** Bytes of binary framing overhead (magic + u32be length = 5). *)

val default_max_frame : int
(** 1 MiB: the prediction server's request bound. *)

type error =
  | Oversized of int  (** JSON line exceeds the frame bound (bytes seen). *)
  | Bad_length of int * int
      (** Binary length prefix out of range: [(declared, limit)].  Covers
          truncated-at-zero, negative/garbage and oversized prefixes. *)
  | Eof_mid_frame  (** Peer closed with a partial frame buffered. *)
  | Closed  (** Clean EOF at a frame boundary (blocking reader only). *)
  | Io of string  (** Transport error. *)

val error_to_string : error -> string

val encode : mode -> string -> string
(** Frame a payload for the wire. *)

val encode_into : Prelude.Bytebuf.t -> mode -> string -> unit
(** Append a framed payload to an output buffer without an intermediate
    string. *)

(** {1 Incremental decoding} — the loop side.  Feed raw socket bytes into
    {!buffer}, then pull whole frames with {!next}. *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder
val buffer : decoder -> Prelude.Bytebuf.t
val buffered : decoder -> int

val next : decoder -> ((mode * string) option, error) result
(** Next complete frame, consuming it from the buffer.  [Ok None] means more
    bytes are needed.  Decode errors are sticky: the stream has lost framing
    and the connection must be closed. *)

(** {1 Blocking transport} — the client side ([Serve.Client],
    [Cluster.Worker], admin queries). *)

type reader

val reader : ?max_frame:int -> Unix.file_descr -> reader

val read : reader -> (mode * string, error) result
(** Block until one whole frame arrives.  Clean EOF at a frame boundary is
    [Error Closed]; EOF mid-frame is [Error Eof_mid_frame]. *)

val poll : reader -> timeout:float -> ((mode * string) option, error) result
(** Like {!read} with a deadline; [Ok None] on timeout (or [EINTR]). *)

val write : Unix.file_descr -> mode -> string -> (unit, error) result
(** Frame and write a payload, retrying short writes and [EINTR]. *)
