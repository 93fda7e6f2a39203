(** Cluster wire protocol: JSON messages in the same {!Net.Codec}
    frames the prediction server uses, with a larger frame bound
    (result frames carry whole interpreter profiles).

    {v
    worker -> coordinator                 coordinator -> worker
    ---------------------                 ---------------------
    register {name,pid,fingerprint}       welcome {worker} | reject {error}
    heartbeat                             lease {job,lease,deadline_s,tasks,
    result {job,lease,task,key,                  trace?}
            checksum,run}                 metrics {metrics}
    task_error {job,lease,task,error}     quit
    lease_done {job,lease}
    metrics_query
    v}

    Every result binds itself to a (job, lease, task-index) triple plus
    the task's store key and an FNV-1a checksum of the serialised run,
    so the coordinator can reject garbled, stale or misattributed
    results by content, never by trust. *)

val max_frame : int
(** 64 MiB — roomy for a lease of tasks or a full profile line. *)

type to_coordinator =
  | Register of { name : string; pid : int; fingerprint : string }
      (** [fingerprint] is {!Passes.Driver.fingerprint}; the coordinator
          rejects workers built with a different pipeline, which could
          otherwise contribute profiles the store keys would never
          admit. *)
  | Heartbeat
  | Result of {
      job : int;
      lease : int;
      task : int;  (** Global task index within the job. *)
      key : string;  (** {!Task.key} as the worker computed it. *)
      checksum : string;
          (** {!Prelude.Fnv.tagged_string} of the serialised [run]. *)
      run : Obs.Json.t;  (** {!Sim.Xtrem.export} payload. *)
    }
  | Task_error of { job : int; lease : int; task : int; error : string }
  | Lease_done of { job : int; lease : int }
  | Metrics_query
      (** Admin query: ask for the coordinator's live
          {!Obs.Metrics.snapshot}.  Answered with [Metrics] before
          registration — a metrics poller connects, queries and leaves
          without ever becoming a worker. *)

type to_worker =
  | Welcome of { worker : int }
  | Reject of { reason : string }
  | Lease of {
      job : int;
      lease : int;
      deadline_s : float;  (** Duration budget, not an absolute time. *)
      tasks : (int * Task.t) list;  (** (global index, task). *)
      trace : Obs.Span.context option;
          (** The coordinator's evaluate-span address; workers record
              their lease spans as remote children of it so the
              per-process traces stitch into one causal tree. *)
    }
  | Metrics of { snapshot : Obs.Json.t }
  | Quit

val to_coordinator_to_json : to_coordinator -> Obs.Json.t
val to_coordinator_of_json : Obs.Json.t -> (to_coordinator, string) result
val to_worker_to_json : to_worker -> Obs.Json.t
val to_worker_of_json : Obs.Json.t -> (to_worker, string) result

val query_metrics : Net.Addr.t -> (Obs.Json.t, string) result
(** Admin client for [portopt metrics --cluster]: connect to a running
    coordinator, send a [metrics_query] and return the live
    {!Obs.Metrics.snapshot} — without registering as a worker. *)
