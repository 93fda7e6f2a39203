(** Newline-delimited JSON wire protocol shared by server and client —
    one request per line, one response line per request.  See
    docs/serving.md for the full schema. *)

val uarch_to_json : Uarch.Config.t -> Obs.Json.t
val uarch_of_json : Obs.Json.t -> (Uarch.Config.t, string) result
(** Validates with {!Uarch.Config.validate}. *)

type request =
  | Predict of {
      counters : Sim.Counters.t;
      uarch : Uarch.Config.t;
      objective : Objective.Spec.t option;
          (** The client's required objective.  The server answers only
              when it matches the loaded model's training spec,
              otherwise a typed 400; [None] accepts any model. *)
    }
  | Predict_batch of {
      queries : (Sim.Counters.t * Uarch.Config.t) array;
      objective : Objective.Spec.t option;
    }
      (** A vector of queries answered as one response line ("results",
          in query order) — the server admits the whole batch as one
          slot and computes it as one pool task. *)
  | Health
  | Metrics
      (** Live {!Obs.Metrics.snapshot} of the server process — counters,
          gauges and bucketed latency histograms; not an admin op. *)
  | Reload
      (** Admin op: re-resolve the server's model source (registry
          channels) and atomically hot-swap the active model(s) without
          dropping in-flight requests; 400 when the server has no model
          source ([serve --model]). *)
  | Shutdown  (** Admin op: trigger a graceful drain. *)
  | Sleep of float
      (** Admin/test op: hold a worker for the duration (clamped to
          [0, 60] seconds) — used to exercise load shedding. *)

val max_batch : int
(** Largest accepted [predict_batch] vector (512); larger batches are
    rejected with a 400. *)

val op_name : request -> string
(** The request's wire ["op"] value. *)

val counters_to_json : Sim.Counters.t -> Obs.Json.t

val request_to_json :
  ?id:int -> ?trace:Obs.Span.context -> request -> Obs.Json.t
(** [trace] attaches the caller's span address as a ["trace"] field so
    the server's [serve.request] events stitch under the caller's
    span (see [Obs.Stitch]). *)

val request_of_json : Obs.Json.t -> (request, string) result
(** Missing ["op"] defaults to ["predict"].  Counter vectors containing
    non-finite values (NaN or an infinity smuggled in as e.g. [1e999])
    are rejected here, before they can reach the model or the
    prediction cache. *)

val request_id : Obs.Json.t -> Obs.Json.t option
(** The ["id"] field to echo into the response, when present. *)

val request_trace : Obs.Json.t -> Obs.Span.context option
(** The ["trace"] context attached by the client, when present. *)

type neighbour = {
  index : int;  (** Training-pair row in the served model. *)
  distance : float;  (** Normalised-feature-space distance (eq. 6). *)
  weight : float;  (** Normalised softmax share; sums to 1. *)
}

type prediction = {
  setting : Passes.Flags.setting;
  flags : string;  (** Human-readable {!Passes.Flags.to_string} form. *)
  neighbours : neighbour array;
  latency_ms : float;  (** Server-side, receipt to response. *)
  cached : bool;  (** Served from the LRU prediction cache. *)
  arm : string option;
      (** A/B arm that answered (["stable"]/["candidate"]); assignment
          is a deterministic hash of the query key, so the same query
          always lands on the same arm for a given split fraction. *)
  model : string option;
      (** Version id ({!Artifact.version_id}) of the artifact that
          answered — pins every response to an exact model under hot
          swap. *)
}

val prediction_to_json : ?id:Obs.Json.t -> prediction -> Obs.Json.t
val prediction_of_json : Obs.Json.t -> (prediction, string) result
(** Validates the setting with {!Passes.Flags.validate}. *)

val batch_to_json : ?id:Obs.Json.t -> prediction array -> Obs.Json.t
(** [{"ok":true,"results":[...]}] — one element per query, in query
    order, each shaped like a single prediction response. *)

val batch_of_json : Obs.Json.t -> (prediction array, string) result

val error_to_json : ?id:Obs.Json.t -> code:int -> string -> Obs.Json.t
(** [code] follows HTTP conventions: 400 malformed, 403 admin op
    without [--admin], 429 load-shed, 500 internal. *)

val check_response : Obs.Json.t -> (Obs.Json.t, int * string) result
(** [Ok] on [{"ok":true,...}], else the error code and message. *)
