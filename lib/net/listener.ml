(* Listener lifecycle shared by both server planes.  See listener.mli. *)

let backlog = 1024

type 'c hooks = {
  max_frame : int option;
  attach : Conn.t -> 'c;
  on_frame : 'c -> string -> unit;
  on_error : ('c -> Codec.error -> unit) option;
  on_closed : 'c -> Conn.close_reason -> unit;
  on_drain : unit -> unit;
}

type 'c t = {
  fd : Unix.file_descr;
  bound : Addr.t;
  loop : Loop.t;
  conns : (int, 'c) Hashtbl.t;  (** Loop thread only. *)
  mutable next_conn : int;
  mutable source : Loop.source option;
  mutable draining : bool;  (** Loop thread only. *)
  stopping : bool Atomic.t;
  loop_done : bool Atomic.t;
  mutable thread : Thread.t option;
}

let address t = t.bound
let loop t = t.loop
let connections t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
let live t = Hashtbl.length t.conns
let draining t = t.draining
let stopping t = Atomic.get t.stopping

(* A socket file nobody answers on is left over from a process that
   died without unlinking it; one that answers belongs to a live
   server, which must keep its address. *)
let replace_stale path =
  if Sys.file_exists path then
    match Addr.connect (Addr.Unix_path path) with
    | fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())

let listen addr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sa = Addr.sockaddr addr in
  (match addr with Addr.Unix_path p -> replace_stale p | Addr.Tcp _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  let bound =
    try
      (match addr with
      | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Addr.Unix_path _ -> ());
      Unix.bind fd sa;
      Unix.listen fd backlog;
      Unix.set_nonblock fd;
      match (addr, Unix.getsockname fd) with
      | Addr.Tcp (host, _), Unix.ADDR_INET (_, port) -> Addr.Tcp (host, port)
      | _ -> addr
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  {
    fd;
    bound;
    loop = Loop.create ();
    conns = Hashtbl.create 64;
    next_conn = 0;
    source = None;
    draining = false;
    stopping = Atomic.make false;
    loop_done = Atomic.make false;
    thread = None;
  }

let on_conn_closed t h id state reason =
  match !state with
  | None -> ()
  | Some c ->
    Hashtbl.remove t.conns id;
    h.on_closed c reason;
    if t.draining && Hashtbl.length t.conns = 0 then Loop.stop t.loop

let attach t h fd =
  (* One request frame, one reply frame: Nagle only adds delayed-ACK
     stalls to this traffic, so turn it off on TCP connections. *)
  (match t.bound with
  | Addr.Tcp _ -> (
    try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Addr.Unix_path _ -> ());
  let id = t.next_conn in
  t.next_conn <- id + 1;
  let state = ref None in
  match
    Conn.attach t.loop fd ?max_frame:h.max_frame
      ~on_frame:(fun _ payload ->
        Option.iter (fun c -> h.on_frame c payload) !state)
      ~on_error:(fun _ e ->
        match (h.on_error, !state) with Some f, Some c -> f c e | _ -> ())
      ~on_closed:(fun _ reason -> on_conn_closed t h id state reason)
      ()
  with
  | exception _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | conn -> (
    match h.attach conn with
    | c ->
      state := Some c;
      Hashtbl.replace t.conns id c
    | exception _ -> Conn.close conn)

(* Accept everything ready, retrying EINTR.  Any other accept failure
   (ECONNABORTED, fd pressure) is dropped: the loop re-polls. *)
let rec accept_burst t h =
  if not t.draining then
    match Unix.accept t.fd with
    | fd, _ ->
      attach t h fd;
      accept_burst t h
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_burst t h
    | exception Unix.Unix_error _ -> ()

let begin_drain t h =
  if not t.draining then begin
    t.draining <- true;
    Option.iter (Loop.remove t.loop) t.source;
    t.source <- None;
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    (match t.bound with
    | Addr.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Addr.Tcp _ -> ());
    h.on_drain ();
    if Hashtbl.length t.conns = 0 then Loop.stop t.loop
  end

let start t ?max_frame ~attach ~on_frame ?on_error ~on_closed ~on_drain () =
  let h = { max_frame; attach; on_frame; on_error; on_closed; on_drain } in
  t.source <-
    Some
      (Loop.add t.loop t.fd ~read:true ~write:false
         ~on_read:(fun () -> accept_burst t h)
         ~on_write:ignore ());
  Loop.set_on_wake t.loop (fun () ->
      if Atomic.get t.stopping then begin_drain t h);
  t.thread <-
    Some
      (Thread.create
         (fun () ->
           Loop.run t.loop;
           Atomic.set t.loop_done true)
         ())

let stop t =
  Atomic.set t.stopping true;
  Loop.nudge t.loop

let wait t =
  while not (Atomic.get t.loop_done) do
    Thread.delay 0.02
  done;
  Option.iter Thread.join t.thread;
  t.thread <- None
