(** The sampling/diffing/rendering core of [portopt top], and the gate
    of [portopt promote].

    A {!sample} pairs one [health] reply (this server instance) with
    one [metrics] reply (the server process) at a wall-clock instant;
    {!render} turns the latest sample — and, when given, the previous
    one — into a fixed-height text panel: request/shed/error rates over
    the polling window, cache hit rate, queue depth, the I/O-loop line
    (live connections, registered fds, completion lag, wakeup and byte
    rates from the [net.loop.*] metrics), and request latency quantiles
    both over the server's lifetime and over just the window (bucket
    subtraction via [Obs.Metrics.delta_hist_json]).

    {!promotion} judges one sample of an A/B server for [portopt
    promote].  Both read the sample's documents through one path
    walker, so the health paths and the [serve.ab.*] metric names a
    client relies on live here alone.

    Pure except for {!fetch}, so the tests can drive {!render} and
    {!promotion} with synthetic samples. *)

type sample = { at : float; health : Obs.Json.t; metrics : Obs.Json.t }

val fetch : Client.t -> (sample, int * string) result
(** One [health] + [metrics] round-trip pair, stamped with the local
    wall clock. *)

val request_hist : sample -> Obs.Json.t
(** The ["serve.request.seconds"] histogram object of the sample
    (empty-histogram JSON when absent). *)

val render : ?prev:sample -> sample -> address:string -> string
(** The panel text; with [prev], rate and window lines are computed
    from the difference of the two samples. *)

(** {2 Promotion gate} *)

type arm = {
  version : string;  (** The arm's model version id. *)
  requests : int;  (** Its [serve.ab.ARM.requests] counter. *)
  p99 : float option;
      (** Its [serve.ab.ARM.seconds] p99, in seconds; [None] without
          samples. *)
}

type promotion = {
  stable : arm;
  candidate : arm;
  verdict : (unit, string) result;  (** [Error why] refuses the flip. *)
}

val promotion :
  min_requests:int ->
  max_regression:float ->
  force:bool ->
  sample ->
  (promotion, string) result
(** The verdict over one sample of a [serve --registry --ab] server.
    It refuses when the candidate is already the stable version; when
    it served fewer than [min_requests]; when it has no latency
    samples; or when its p99 exceeds the stable arm's by more than the
    fraction [max_regression].  [force] overrides every refusal but the
    first.  [Error] when the sample cannot be judged: its health
    document names no model version, or no candidate arm. *)
