(** The listening half of a server plane: one socket, one {!Loop} on its
    own thread, and the connections accepted onto it.

    Both planes — the prediction server and the cluster coordinator —
    are a listener plus policy.  The listener owns the mechanism:
    binding (replacing a stale Unix socket file, never a live one),
    the accept burst, [TCP_NODELAY] on accepted TCP connections, the
    live-connection table, the loop thread, an async-signal-safe
    {!stop} and the common part of a drain.  The owner supplies its
    per-connection state ['c] and handlers, and a drain hook that says
    what a drain does to the connections still open.

    A drain (after {!stop}) runs once on the loop thread: the listening
    source is removed, the socket closed, a Unix socket path unlinked,
    then the owner's [on_drain] runs; the loop stops as soon as no
    connection is left.  Drain latency is therefore bounded by the
    owner's outstanding work, never by a poll period. *)

type 'c t

val listen : Addr.t -> 'c t
(** Bind and listen (backlog 1024) and create the loop; nothing is
    accepted until {!start}.  A TCP listener sets [SO_REUSEADDR]; port
    0 asks the kernel for one ({!address} reports it).  An existing
    Unix socket file is probed first: a refused connection means a
    stale file, which is replaced; an answered one means a live server,
    and [listen] raises [Unix.Unix_error (EADDRINUSE, _, _)] without
    touching it.  Also ignores SIGPIPE for the process, so a peer
    closing mid-reply surfaces as EPIPE.  Raises [Unix.Unix_error] on
    failure, with nothing left open. *)

val start :
  'c t ->
  ?max_frame:int ->
  attach:(Conn.t -> 'c) ->
  on_frame:('c -> string -> unit) ->
  ?on_error:('c -> Codec.error -> unit) ->
  on_closed:('c -> Conn.close_reason -> unit) ->
  on_drain:(unit -> unit) ->
  unit ->
  unit
(** Register the socket on the loop and spawn the loop thread.  Each
    accepted fd becomes a {!Conn} ([max_frame] as in {!Conn.attach});
    [attach] builds the owner's state for it, and the handlers receive
    that state ([on_error] as in {!Conn.attach}).  A connection whose
    set-up raises is closed, never leaked.  [on_drain] runs on the loop
    thread once per drain, after the socket is closed. *)

val address : 'c t -> Addr.t
(** The bound address, with the kernel-assigned port for TCP port 0. *)

val loop : 'c t -> Loop.t

val connections : 'c t -> 'c list
(** The live connections' states.  Loop thread only. *)

val live : 'c t -> int
(** Live connection count.  Loop thread only. *)

val draining : 'c t -> bool
(** The drain has begun.  Loop thread only. *)

val stop : 'c t -> unit
(** Request a drain: one atomic store and one wakeup-pipe write, so it
    is safe from a signal handler and from any thread.  Idempotent. *)

val stopping : 'c t -> bool
(** {!stop} has been called.  Safe from any thread. *)

val wait : 'c t -> unit
(** Block until the loop has exited and its thread is joined.  Polls
    rather than parking on a condition, so the calling (main) thread
    keeps reaching the safe points where OCaml runs signal handlers. *)
