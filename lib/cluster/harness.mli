(** The local-cluster harness behind [train], [crossval] and [evidence
    --workers]: one coordinator and the workers launched for it, around
    one computation.

    The harness owns the coordinator's lifetime and the caller owns how
    a worker runs: [portopt] launches each worker as a child process
    ([portopt worker --connect ...]), so it can be signalled and reaped
    directly, and the tests launch threads.  The computation sees only
    the coordinator's evaluator, so its output is byte-identical with or
    without the cluster: every result is merged by task key. *)

type options = {
  workers : int;  (** Workers to launch, >= 0. *)
  listen : Net.Addr.t option;
      (** The coordinator's address.  [None] is 127.0.0.1 on an
          ephemeral port, or no cluster at all when [workers] is 0. *)
  lease_size : int;  (** Tasks per lease, > 0. *)
  lease_timeout_s : float;  (** Lease deadline, > 0. *)
}

val run :
  ?store:Store.t ->
  ?on_result:(task:Task.t -> key:string -> run:Sim.Xtrem.run -> unit) ->
  launch:(connect:Net.Addr.t -> int -> unit -> unit) ->
  options ->
  (((Workloads.Spec.t * Passes.Flags.setting array) array ->
   Sim.Xtrem.run array array)
   option ->
  'a) ->
  ('a, string) result
(** [run ~launch opts f] is [Ok (f None)] when [opts] asks for no
    cluster: no workers and no listen address.

    Otherwise it starts a coordinator on [opts.listen], writing through
    [store] when given, logs [cluster: coordinator listening on ADDR],
    and calls [launch ~connect i] for each worker [i]: that starts the
    worker and returns the function that stops and reaps it.  Then it
    runs [f (Some evaluate)], [evaluate] being {!Coordinator.evaluate}
    on that coordinator, with SIGINT and SIGTERM wired to
    {!Coordinator.stop}.  [evaluate] passes [on_result] through and
    logs [cluster: N of M tasks evaluated] at most about 20 times per
    round.  However [f] ends, the coordinator shuts down, every launched
    worker is reaped in launch order and the previous signal handlers
    are restored.

    [Error] names the address and the reason when the coordinator
    cannot listen; then nothing was launched and [f] did not run. *)
