(** JSONL run traces: one machine-readable event per line.

    A trace file starts with a [manifest] event (schema version, start
    time, argv, git describe, the [REPRO_*] environment, plus whatever
    the caller adds — seed, scale, job count), carries [span_begin] /
    [span_end] / [event] / [tick] / [log] records during the run, and
    ends with a [metrics] event (the final {!Metrics.snapshot}) and a
    [stop] event with total wall and CPU time.  Every record has three
    common fields: ["ev"] (the record type), ["ts"] (wall-clock seconds
    since process start) and ["seq"] (position in the file, starting at
    0).  The full schema is documented in docs/observability.md.

    There is one process-wide sink, guarded by a mutex — any domain may
    emit.  When no sink is open (the default), {!emit} is a single
    atomic load and a branch, so instrumented code costs nothing in
    ordinary runs; instrumentation must never change computed results
    either way (enforced by a bit-identity test).

    Verbosity has three levels.  [Quiet] silences progress lines;
    [Info] (the default) records stage/compile-level events; [Debug]
    additionally records per-fold and per-pair events and ticks.  One
    level governs both the trace contents and the human-readable
    progress lines rendered by {!Span}. *)

type level = Quiet | Info | Debug

val set_level : level -> unit
val level : unit -> level

val level_of_string : string -> (level, string) result
val level_to_string : level -> string

val verbose : level -> bool
(** Whether records at [level] pass the current verbosity. *)

val elapsed : unit -> float
(** Wall-clock seconds since process start — the ["ts"] of every event
    and the timestamp in {!Span.stamp}'s progress lines. *)

val git_describe : unit -> string
(** Best-effort [git describe --always --dirty]; ["unknown"] outside a
    checkout. *)

(** {1 Writing} *)

val start :
  ?manifest:(string * Json.t) list ->
  ?trace_id:string ->
  ?process:string ->
  string ->
  unit
(** Open [path] and write the manifest event (schema version 2: it
    carries a [trace_id] and a [process] name).  Closes any previously
    open sink first; a [stop] at process exit is registered
    automatically.  [trace_id] defaults to a fresh id unique to this
    process start; pass the parent's id when spawning workers so the
    files stitch into one logical trace.  [process] defaults to
    ["<executable>-<pid>"] and names this process in cross-process
    span references. *)

val stop : unit -> unit
(** Emit the final [metrics] and [stop] events and close the sink.
    A no-op when no sink is open. *)

val active : unit -> bool

val trace_id : unit -> string option
(** The open sink's trace id; [None] when tracing is off. *)

val process_name : unit -> string option
(** The open sink's process name; [None] when tracing is off. *)

val path : unit -> string option
(** The open sink's file path; [None] when tracing is off.  Lets a
    parent derive per-worker trace paths next to its own. *)

val on : level -> bool
(** [active () && verbose level]: whether an event at [level] would be
    written.  Use to skip attribute computation when tracing is off. *)

val emit : ?level:level -> string -> (string * Json.t) list -> unit
(** [emit ev fields] appends one record; a no-op unless [on level]. *)

(** {1 Reading} *)

val read_file : string -> (Json.t list, string) result
(** Parse every line of a JSONL trace. *)

val validate_event : Json.t -> (unit, string) result
(** Check one record against the schema: known ["ev"], required fields
    present with the right types. *)

val validate_file : string -> (Json.t list, string) result
(** {!read_file} plus per-record validation, a leading manifest and
    contiguous ["seq"] numbering. *)
