(** Concurrent prediction server: JSON requests over a TCP or
    Unix-domain socket — newline-delimited or length-prefixed binary
    frames, negotiated per connection ({!Net.Codec}) — all connections
    multiplexed on one {!Net.Loop} readiness loop (no thread per
    connection), prediction work dispatched onto a {!Prelude.Pool} of
    worker domains with completions re-entering the loop via its wakeup
    pipe, an LRU prediction cache keyed on (model version, quantised
    feature vector), bounded admission with 429-style load shedding,
    and atomic hot swap / A/B routing of the served model(s).  See
    docs/serving.md and docs/net.md for the wire protocol and
    operational semantics. *)

type source =
  | Unchanged  (** The model source still resolves to what is live. *)
  | Swap of {
      stable : string * Artifact.t;
      candidate : (string * Artifact.t) option;
    }
      (** Install these as the new arms (atomically, between
          requests).  Each artifact travels with its version id, as
          {!Artifact.read} or a registry resolve returned it. *)

type config = {
  address : Net.Addr.t;
  jobs : int;  (** Worker-pool size (at least 1). *)
  queue : int;
      (** Admitted-but-waiting requests tolerated beyond [jobs] before
          the server sheds load with a 429 error. *)
  cache_capacity : int;  (** LRU entries; [0] disables the cache. *)
  admin : bool;
      (** Honour the [shutdown], [sleep] and [reload] ops
          (otherwise 403). *)
  split : float;
      (** Fraction of queries routed to the candidate arm when one is
          installed; clamped to [0, 1].  Assignment is a deterministic
          FNV hash of the query key (quantised counters + uarch cache
          key), so a given query always lands on the same arm. *)
  source : (unit -> (source, string) result) option;
      (** Model source consulted by the [reload] op and the watch
          thread.  Typically a closure over registry channel pointers
          built by the CLI; this library stays ignorant of the
          registry. *)
  watch : float option;
      (** When set (seconds > 0) and a [source] is configured, a watch
          thread polls the source on this interval and installs
          changes automatically.  A failing poll counts an error and
          leaves the last good model serving. *)
}

val default_config : Net.Addr.t -> config
(** jobs 2, queue 64, cache 512 entries, admin off, split 0, no
    source, no watch. *)

val quantise : float array -> string
(** The LRU cache key body: the raw feature vector on a 1e-6 grid.
    [-0.0] and [0.0] produce the same key; non-finite values (already
    rejected at the protocol layer) fall back to the float's exact bit
    pattern rather than an unspecified [Int64] conversion.  Exposed for
    tests. *)

val ab_bucket : string -> int
(** The deterministic A/B hash: FNV-1a of the routing key into
    [0, 10000).  Buckets below [split * 10000] go to the candidate arm.
    Exposed for tests. *)

type t

val start :
  ?candidate:string * Artifact.t ->
  artifact:string * Artifact.t ->
  config ->
  t
(** Bind, listen and spawn the loop thread; returns immediately.
    [artifact] is the stable arm; [?candidate] opens an A/B experiment
    at [config.split] from the first request.  Each artifact comes
    with its version id ({!Artifact.read} returns both), which keys the
    cache and is reported as the arm's [version]; the server never
    re-serialises a model to derive it.  The server creates (and on
    [wait] shuts down) its own pool of [config.jobs] workers.  Raises
    [Unix.Unix_error] if the address cannot be bound — including a
    Unix socket path a live server answers on — with nothing left
    open (see {!Net.Listener.listen}). *)

val install :
  t ->
  stable:string * Artifact.t ->
  candidate:(string * Artifact.t) option ->
  unit
(** Atomically replace the routing state (both arms) without dropping
    in-flight requests: requests already admitted keep computing
    against the snapshot they took; new requests see the new models.
    Exposed for in-process tests; over the wire this is the [reload]
    op. *)

val address : t -> Net.Addr.t
(** The bound address — with the kernel-assigned port when the config
    asked for TCP port 0, which is how tests get an ephemeral port. *)

val stop : t -> unit
(** Begin a graceful drain: stop accepting, close idle connections,
    let in-flight requests complete and be answered.  Idempotent,
    async-signal-safe in the OCaml sense (one atomic store plus one
    wakeup-pipe write, no locks), so it can be called from a signal
    handler; the loop notices immediately — drain latency is bounded by
    outstanding work, not a poll period. *)

val wait : t -> unit
(** Block until the drain completes: loop and watch threads joined,
    every connection closed, pool shut down.  Polls rather than
    parking on a condition so the main thread keeps reaching safe
    points where OCaml runs signal handlers. *)
