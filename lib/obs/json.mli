(** Minimal JSON values for the telemetry layer.

    Hand-rolled (no external dependency) and deliberately small: enough
    to print one trace event per line ({!to_string} never emits
    newlines) and to read a trace back for validation and reporting.
    Printing uses the shortest float representation that round-trips,
    so [of_string (to_string v)] reconstructs [v] exactly; non-finite
    floats, which JSON cannot represent, print as [null].

    Large documents need not go through the tree: the buffer writers
    ({!add_float}, {!add_string}, {!add}) are the printer {!to_string}
    uses, and the pull reader ({!parse} and the typed reads below) is
    the lexer {!of_string} uses, so a codec built on them writes and
    accepts exactly what the tree does. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Single-line JSON rendering with full string escaping. *)

val of_string : string -> (t, string) result
(** Parse one JSON document; [Error] carries a message with the byte
    offset of the failure.  Numbers without [.], [e] or [E] parse as
    {!Int} (as {!Float} when they overflow an int), everything else as
    {!Float}, with the bits [float_of_string] gives the token.  A
    [\u] escape takes four hex digits and decodes to UTF-8; a
    surrogate pair is one code point, and a lone surrogate is an
    error. *)

(** {2 Buffer writers} *)

val add : Buffer.t -> t -> unit
(** Append the {!to_string} rendering of a value. *)

val add_float : Buffer.t -> float -> unit
(** Append a float as {!to_string} prints [Float f]: the shortest
    decimal that round-trips ([".0"] kept on integral values), or
    [null] when [f] is not finite. *)

val add_string : Buffer.t -> string -> unit
(** Append a quoted, escaped JSON string. *)

(** {2 Pull reader}

    A cursor over one document held in a string.  Every read first
    skips whitespace.  A typed read returns [None] — leaving the cursor
    where it was — when the next value is of another kind; malformed
    JSON aborts the whole {!parse}.  An int-shaped token reads as
    {!of_string} reads it: an int when it fits, a float otherwise. *)

type cursor

val parse : string -> (cursor -> 'a) -> ('a, string) result
(** [parse text f] runs the decoder [f] over [text], then requires
    nothing but whitespace after what [f] read.  Malformed JSON gives
    [Error] with the byte offset, in {!of_string}'s words; exceptions
    [f] raises itself pass through. *)

val value : cursor -> t
(** The next value, whatever its kind, as a tree. *)

val null : cursor -> bool
(** Consume a [null]; [false] when the next value is something else. *)

val bool : cursor -> bool option

val int : cursor -> int option
(** An int-shaped number token that fits an int. *)

val float : cursor -> float option
(** Any number token, as {!to_float} reads it. *)

val string : cursor -> string option

val floats : cursor -> float array option
(** An array of numbers, read straight into a float array in one pass
    over the text: each element as {!float} reads it. *)

type rows
(** A memo of the float rows read from one document, keyed by their
    bytes. *)

val rows : unit -> rows

val shared_floats : rows -> cursor -> float array option
(** {!floats} through the memo: what {!floats} returns, errors and
    offsets included, except that a row whose bytes (from its ['['] to
    its [']']) equal those of a row read before is not parsed again and
    is that row's array itself.  Equal rows written alike are therefore
    one array, which the caller must never write.  The bytes are hashed
    and compared where they lie in the text; a lookup makes a bounded
    number of comparisons ({!Intern}), however the hashes of a hostile
    document collide.  Raises [Invalid_argument] when the memo already
    holds rows of another document. *)

val array : cursor -> (cursor -> 'a) -> 'a array option
(** [array c f] reads an array, calling [f] once per element; [f] must
    read exactly one value. *)

val members : cursor -> (string -> unit) -> bool
(** [members c f] reads an object, calling [f key] once per member, in
    order and duplicates included; [f] must read the member's value.
    [false] when the next value is not an object. *)

(** {2 Tree accessors} *)

val member : string -> t -> t option
(** Field lookup in an {!Obj}; [None] for other constructors.  With
    duplicate keys the first wins. *)

val to_int : t -> int option
val to_float : t -> float option
(** [to_float] accepts both {!Float} and {!Int}. *)

val to_str : t -> string option
val to_list : t -> t list option

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field name conv j] is [conv] applied to member [name] of [j], or
    [Error "missing or malformed \"name\" field"]. *)
