(** Deterministic fixed-size domain work pool.

    The training-data and cross-validation sweeps are embarrassingly
    parallel over independent indices, so the pool exposes exactly the
    two shapes they need — [init] (indexed fan-out) and [map] — with a
    hard determinism guarantee: results are stored by index, so the
    output array is bit-identical to the sequential [Array.init] /
    [Array.map] whenever the task function is pure per index.  Workers
    only affect {e which domain} computes an index, never the result.

    Parallelism is controlled by the [REPRO_JOBS] environment variable
    (default: [Domain.recommended_domain_count ()]).  [REPRO_JOBS=1]
    spawns no domains at all and runs every [init]/[map] task inline in
    the calling domain — exactly the historical sequential behaviour.

    Exceptions raised by tasks are re-raised in the submitting domain;
    when several tasks fail, the one with the {e lowest index} wins, so
    failure behaviour is deterministic too.

    The pool feeds the [pool.batches] / [pool.tasks] counters, the
    [pool.task_seconds] histogram and the [pool.queue_depth] gauge —
    all in {!Obs.Metrics}, all purely observational. *)

type t
(** A pool of worker domains plus the submitting domain. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1]; the
    submitting domain participates in every batch, so total parallelism
    is [jobs]).  Raises [Invalid_argument] if [jobs < 1]. *)

val size : t -> int
(** Total parallelism of the pool, including the submitting domain. *)

exception Closed
(** Raised by {!submit} after {!shutdown}: a drained pool refuses new
    work loudly instead of silently dropping or inlining it. *)

val shutdown : t -> unit
(** Join the worker domains (or the {!submit} service thread), then
    run any still-queued {!submit} tasks inline — work accepted before
    shutdown always executes.  The pool must be idle (no batch in
    flight); batch use after shutdown falls back to inline sequential
    execution, while {!submit} raises {!Closed}.  Publishes the
    per-domain busy times as [pool.domain<i>.busy_s] gauges in
    {!Obs.Metrics}. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init t n f] is [Array.init n f] with the [n] calls distributed
    over the pool.  [f] must be safe to call from any domain and pure
    per index for the determinism guarantee to hold.  Nested use of the
    same pool from inside a task raises [Invalid_argument] (it would
    deadlock a fixed-size pool). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] is [Array.map f xs] distributed over the pool. *)

val submit : t -> (unit -> unit) -> unit
(** [submit t task] enqueues a single closure for asynchronous
    execution by the pool — the request-dispatch shape used by
    the serving subsystem, complementing the batch-shaped [init]/[map].
    Returns immediately at every pool size; tasks run in submission
    order between batches, never on the caller's thread.  A pool with
    no worker domains (jobs = 1) runs them on one service thread of its
    own, started by the first [submit] and joined by {!shutdown}.
    After [shutdown], [submit] raises {!Closed}.  A task must not
    raise: escaping exceptions are counted in the [pool.async_errors]
    metric and otherwise swallowed (a detached worker has nowhere
    meaningful to re-raise), so callers thread their own error channel
    through the closure.  Tasks still queued when [shutdown] runs are
    executed inline by [shutdown] itself before it returns. *)

val pending : t -> int
(** Number of [submit]ted tasks not yet claimed by a worker — the
    queue-depth signal the server's load-shedding admission reads. *)

val jobs : unit -> int
(** Parallelism of the shared default pool: [REPRO_JOBS] if set, else
    [Domain.recommended_domain_count ()].  Reading it creates no pool;
    a [REPRO_JOBS] that is not a positive integer raises
    [Invalid_argument]. *)

val default : unit -> t
(** The process-wide pool used when callers don't pass their own, sized
    by [jobs ()].  Created on first use; joined automatically at exit. *)

val serialised : ('a -> unit) -> 'a -> unit
(** [serialised f] wraps callback [f] (typically a progress printer)
    with a fresh mutex so concurrent domains never interleave inside
    it.  Identity-like for single-domain use. *)
