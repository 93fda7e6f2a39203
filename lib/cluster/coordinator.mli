(** Cluster coordinator: shard profiling tasks across workers under
    leases, and merge results deterministically.

    The coordinator owns every scheduling decision so the artifact
    cannot depend on the cluster's timing:

    - the task grid is enumerated and {e deduplicated by store key}
      locally, and any store-warmed task is answered before anything
      ships;
    - remaining tasks go out in leases (a batch of task indices plus a
      deadline); an expired lease, a dead worker or a dropped result
      just returns its tasks to the pending set with a retry budget and
      an exponential-backoff-with-jitter delay;
    - results install into a slot keyed by task index — first valid
      result wins, duplicates count a metric and change nothing — so
      arrival order, worker count and chaos are all invisible in the
      merged output;
    - a worker that keeps failing leases trips a per-worker circuit
      breaker and sits out a cooldown; a task that exhausts its retries
      fails the whole evaluation loudly (mirroring local evaluation,
      where a miscompile aborts the run).

    One {!evaluate} runs at a time; workers may join and leave at any
    point, including mid-evaluation.

    I/O: every worker connection is multiplexed on one {!Net.Loop}
    readiness loop (no thread per connection); frames are
    newline-JSON or length-prefixed binary, latched per connection
    from the registration frame ({!Net.Codec}).  Sends are posted to
    the loop and buffered per connection, so a slow worker socket
    never stalls scheduling or another worker's results. *)

type config = {
  address : Net.Addr.t;
      (** Listen address; TCP port 0 lets the kernel pick ({!address}
          reports the real one). *)
  lease_size : int;  (** Max tasks handed out per lease. *)
  lease_timeout_s : float;  (** Lease deadline; expiry reassigns. *)
  heartbeat_timeout_s : float;
      (** Silence after which a worker is declared dead. *)
  retry : Prelude.Backoff.policy;
      (** Per-task retry budget and reassignment backoff. *)
  breaker_threshold : int;
      (** Consecutive failed leases before a worker's breaker opens. *)
  breaker_cooldown_s : float;
  register_timeout_s : float;
      (** How long {!evaluate} tolerates having zero live workers
          before failing. *)
}

val config : ?address:Net.Addr.t -> unit -> config
(** Defaults: 127.0.0.1 on an ephemeral port, leases of 8 tasks with a
    30 s deadline, 5 s heartbeat timeout, {!Prelude.Backoff.default}
    retries, breaker at 5 failures with a 2 s cooldown, 30 s worker
    registration patience. *)

type t

val create : ?store:Store.t -> config -> t
(** Bind, listen and start accepting workers (on a background thread).
    [store] makes the coordinator a write-through cache: results
    persist as they arrive, and already-stored tasks never ship. *)

val address : t -> Net.Addr.t
(** The actually-bound address — what workers should [--connect] to. *)

val workers : t -> int
(** Currently registered live workers (for tests and progress). *)

val evaluate :
  ?tick:(done_:int -> total:int -> unit) ->
  ?on_result:(task:Task.t -> key:string -> run:Sim.Xtrem.run -> unit) ->
  t ->
  (Workloads.Spec.t * Passes.Flags.setting array) array ->
  Sim.Xtrem.run array array
(** Profile every (program, setting) pair of the grid on the cluster
    and return runs in request order, each carrying its requested
    setting.  Blocks the calling thread (signal handlers keep running);
    raises [Failure] when a task exhausts its retries, when no live
    worker shows up within [register_timeout_s], or when {!stop} was
    requested.

    [on_result] streams each deduplicated task's result as it installs
    — store-warmed tasks fire synchronously before anything ships,
    cluster results fire on the I/O loop thread (so the callback must
    be thread-safe and quick — it delays every connection — and must
    not raise).  Exactly one
    call per unique task; duplicates and stale results never fire.
    This is how evidence pipelines watch training data accumulate
    without waiting for the whole grid. *)

val stop : t -> unit
(** Request a drain: one atomic store plus one wakeup-pipe write, so it
    is safe to call from a signal handler and the loop notices
    immediately.  A running {!evaluate} fails promptly; the loop closes
    the listener, tells every worker to quit and gives connections a
    short grace to hang up before cutting them off. *)

val shutdown : t -> unit
(** {!stop}, then block until the drain completes and the loop thread
    is joined.  Idempotent. *)
