(** The trace report: join the trace files of one or more processes
    into one causal tree.

    Each process writes its own JSONL trace; spans reference their
    parent either locally (the ["parent"] span id within the same file)
    or remotely (the ["remote"] [{trace_id, process, span}] context
    propagated through [Serve.Protocol] requests and [Cluster.Wire]
    leases).  The stitcher keys every span by [(process, id)], resolves
    local parents first and remote references for process-entry spans,
    and reports anything unresolvable as an {e orphan} — the smoke
    suite asserts a healthy cluster run stitches with zero orphans.
    One file is stitched like many: its spans form its own trees.

    v1 traces (no process name in the manifest) still load: the file
    name stands in as the process identity and their spans simply form
    their own trees. *)

type span = {
  process : string;
  id : int;
  name : string;
  parent : int option;
  remote : (string * int) option;
  ts : float;
  mutable dur_s : float;
  mutable ended : bool;
  mutable children : span list;
}

type process_info = {
  p_name : string;
  p_file : string;
  p_trace_id : string option;
  p_version : int;
  p_argv : string list;  (** from the manifest *)
  p_env : (string * string) list;  (** the manifest's [REPRO_*] variables *)
  mutable p_spans : int;
  mutable p_events : int;
  mutable p_wall : float option;
  mutable p_metrics : Json.t option;
}

type t = {
  processes : process_info list;
  roots : span list;
  orphans : span list;
  trace_ids : string list;
  leaves : (string * int * float) list;
      (** Leaf events by name: count and summed [dur_s] (0 where an
          event has none), largest sum first. *)
}

val stitch : (string * Json.t list) list -> (t, string) result
(** [stitch [(file, events); ...]] joins parsed traces (use
    [Trace.validate_file] to obtain the events).  [Error] names two
    files that claim the same process: their spans would collide. *)

val orphan_count : t -> int

val critical_path : t -> span list
(** From the widest root, repeatedly descend into the slowest child —
    the chain where wall time concentrates. *)

val per_process_self : t -> (string * float) list
(** Total span self-time per process (each span's duration minus its
    same-process children; cross-process children overlap rather than
    consume the parent), widest first. *)

type tally = { calls : int; total_s : float; self_s : float; max_s : float }

val spans_by_name : t -> (string * tally) list
(** Ended spans totalled by name, largest [total_s] first; [self_s]
    sums the self time {!per_process_self} counts. *)

val merged_metrics : t -> Json.t option
(** The final metrics snapshots of all processes merged with
    [Metrics.merge_snapshots]; [None] when no file carries one. *)

val render : t -> string
(** Human-readable report: a header per process (with its argv and
    [REPRO_*] env), orphan list, bounded causal tree, critical path,
    per-process self time, spans and leaf events by name, the nonzero
    merged counters and gauges, and merged histogram quantiles. *)
