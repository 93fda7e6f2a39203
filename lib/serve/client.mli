(** Blocking client for the prediction server ([portopt query], the
    serve benchmark and the tests).  Not thread-safe: use one client
    per thread. *)

type t

val connect :
  ?reconnect:Prelude.Backoff.policy ->
  ?wire:Net.Codec.mode ->
  Net.Addr.t ->
  t
(** Raises [Unix.Unix_error] if the server is unreachable.  [reconnect]
    governs how idempotent ops handle a connection that dies
    mid-exchange (ECONNRESET, server restart, EOF): redial the same
    address after a backed-off delay and resend, up to the policy's
    retry budget.  Default: {!Prelude.Backoff.default} capped at one
    retry — a hot server restart is invisible to read-only callers,
    a dead address fails after one redial.  Non-idempotent ops
    ([shutdown], [sleep], [reload]) never resend.  [wire] picks the
    frame format ({!Net.Codec.Binary} by default; [Json] is the
    human-readable debug format) — the server latches whichever arrives
    first and replies in kind, and the JSON payload is identical either
    way. *)

val close : t -> unit

val request : t -> Obs.Json.t -> (Obs.Json.t, string) result
(** Raw round-trip: send one JSON line, read one JSON line back.  No
    reconnect — transport errors surface directly. *)

(** The typed helpers return [Error (code, message)] with the server's
    HTTP-style code (429 = shed, 403 = admin op refused, ...), or code
    [0] for transport and parse failures. *)

val predict :
  ?backoff:Prelude.Backoff.policy ->
  ?objective:Objective.Spec.t ->
  t ->
  counters:Sim.Counters.t ->
  uarch:Uarch.Config.t ->
  (Protocol.prediction, int * string) result
(** With [backoff], a 429 load-shed reply is retried after an
    exponentially backed-off, jittered sleep ({!Prelude.Backoff}), up
    to the policy's retry budget; every other server error still
    returns immediately.  Without it, one shot (the historical
    behaviour).  Orthogonally, transport failures go through the
    [reconnect] policy (predict is idempotent).  [objective] pins the
    training spec the answering model must have — the server replies
    with a 400 when the loaded model was trained for a different one;
    omitted, any model answers. *)

val predict_batch :
  ?objective:Objective.Spec.t ->
  t ->
  (Sim.Counters.t * Uarch.Config.t) array ->
  (Protocol.prediction array, int * string) result
(** One [predict_batch] round trip: the whole query vector in one
    request line, answered in query order by one response line.  The
    server admits the batch as a single slot and computes the cache
    misses as a single pool task, so a batch costs one queue position
    instead of N.  All-or-nothing: a malformed query or a shed batch
    fails the whole call.  Transport failures reconnect and resend
    (idempotent). *)

val health : t -> (Obs.Json.t, int * string) result
(** The server's health document (uptime, request/shed counts, cache
    stats, queue depth, active model version/checksum/provenance, A/B
    state).  Reconnects on transport failure. *)

val metrics : t -> (Obs.Json.t, int * string) result
(** The server process's live {!Obs.Metrics.snapshot} — counters,
    gauges and bucketed latency histograms (the ["metrics"] object of
    the wire response).  Feed it to [Obs.Prom.render] for a Prometheus
    scrape, or diff successive snapshots for a dashboard.  Reconnects
    on transport failure. *)

val reload : t -> (Obs.Json.t, int * string) result
(** Ask the server to re-resolve its model source and hot-swap
    (requires [--admin] and a source, i.e. [serve --registry]).  Never
    resent on transport failure: the swap may already have happened. *)

val shutdown : t -> (Obs.Json.t, int * string) result
(** Ask the server to drain and exit (requires [--admin]). *)

val sleep : t -> float -> (Obs.Json.t, int * string) result
(** Hold a worker for the duration (requires [--admin]); test/ops aid
    for exercising load shedding. *)
