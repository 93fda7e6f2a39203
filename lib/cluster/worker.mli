(** Cluster worker: connect to a coordinator, evaluate leased tasks
    through the store read-through, stream results back.

    A worker is deliberately dumb — all scheduling intelligence (lease
    sizing, deadlines, retries, circuit breaking) lives in the
    coordinator.  The worker's whole contract is: register with its
    pipeline fingerprint, heartbeat, evaluate each leased task with
    {!Store.profile} (so a [--store] makes repeats free and results
    durable), and answer every task with either a checksummed result or
    a [task_error] before announcing [lease_done].

    The send path runs through {!Chaos.transform} when fault injection
    is configured, and {!Chaos.should_kill} may abort the process
    mid-lease — the harness the coordinator's recovery machinery is
    tested against. *)

type config = {
  connect : Net.Addr.t;
  name : string;  (** Registration name; also the chaos salt. *)
  store : Store.t option;  (** Read-through profile store. *)
  chaos : Chaos.t;
  reconnect : Prelude.Backoff.policy;
      (** Applied to failed connects and lost connections; once the
          retries are exhausted the worker gives up ({!Lost}). *)
  heartbeat_s : float;
  wire : Net.Codec.mode;
      (** Frame format for everything this worker sends
          ({!Net.Codec.Binary} by default); the coordinator latches it
          from the registration frame and replies in kind.  [Json]
          keeps the session greppable on the wire.  Chaos corruption
          applies to the payload before framing, so it exercises the
          checksum/parse paths, not the codec. *)
}

val config : connect:Net.Addr.t -> name:string -> config
(** Defaults: no store, no chaos, {!Prelude.Backoff.default} reconnect,
    0.5 s heartbeats, binary framing. *)

type outcome =
  | Drained  (** Coordinator said [quit], or [stop] turned true. *)
  | Killed  (** Chaos killed the worker mid-lease (socket dropped). *)
  | Lost  (** Reconnect retries exhausted, or registration rejected. *)

val outcome_to_string : outcome -> string

val run : ?stop:(unit -> bool) -> config -> outcome
(** Serve leases until drained, killed or lost.  [stop] is polled
    between frames and between tasks (wire a signal flag here); a
    worker that stops mid-lease simply disconnects and the coordinator
    reassigns the lease.  Blocks the calling thread; the heartbeat runs
    on an internal thread. *)
