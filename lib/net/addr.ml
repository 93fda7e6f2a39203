type t = Tcp of string * int | Unix_path of string

let to_string = function
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Unix_path path -> path

let of_string s =
  let s = String.trim s in
  if s = "" then Error "\"\": empty address"
  else if String.contains s '/' then Ok (Unix_path s)
  else
    match String.rindex_opt s ':' with
    | None ->
      Error
        (Printf.sprintf "%S: expected host:port or a socket path containing '/'"
           s)
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "%S: bad port %S" s port))

let sockaddr = function
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
        | h -> h.Unix.h_addr_list.(0))
    in
    Unix.ADDR_INET (ip, port)
  | Unix_path path -> Unix.ADDR_UNIX path

let connect addr =
  let sa = sockaddr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd sa;
     match addr with
     | Tcp _ -> (
       try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ())
     | Unix_path _ -> ()
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd
