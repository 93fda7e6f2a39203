(** Stream-socket addresses, shared by both server planes and every
    client: the prediction server and its clients ([--socket],
    [--host]/[--port]), the cluster coordinator and its workers
    ([--cluster-listen], [--connect], [metrics --cluster]). *)

type t = Tcp of string * int | Unix_path of string

val to_string : t -> string
(** ["host:port"], or the socket path; {!of_string} reads it back. *)

val of_string : string -> (t, string) result
(** ["host:port"] or a Unix socket path (recognised by containing
    ['/']).  Errors quote the text and name no command-line flag:
    each caller prefixes its own. *)

val sockaddr : t -> Unix.sockaddr
(** Resolves host names for [Tcp].  An unresolvable host raises
    [Unix.Unix_error (EHOSTUNREACH, "gethostbyname", host)], so it
    surfaces through the same handlers as a refused connection. *)

val connect : t -> Unix.file_descr
(** Dial a blocking stream socket.  TCP connections get [TCP_NODELAY]:
    every user sends one frame and waits for one back, the pattern
    Nagle's algorithm stalls on a delayed ACK.  Raises
    [Unix.Unix_error] on failure, with the fd already closed. *)
