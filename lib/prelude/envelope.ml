(** Checksummed two-line files and atomic file IO — see envelope.mli. *)

module J = Obs.Json

type format = {
  magic : string;
  oldest : int;
  current : int;
  noun : string;
  kind : string;
}

type contents = { version : int; digest : string; payload : string }

type sealed = {
  header : string;
  chunks : string list;
  digest : string;
  bytes : int;
}

let ( let* ) = Result.bind

(* One pass over the chunks gives the digest; they are never joined. *)
let seal fmt chunks =
  let fnv = Fnv.create () in
  List.iter (Fnv.add_string fnv) chunks;
  let bytes = List.fold_left (fun n c -> n + String.length c) 0 chunks in
  let header =
    J.to_string
      (J.Obj
         [
           ("magic", J.Str fmt.magic);
           ("version", J.Int fmt.current);
           ("checksum", J.Str (Fnv.tagged fnv));
           ("bytes", J.Int bytes);
         ])
  in
  { header; chunks; digest = Fnv.to_hex fnv; bytes }

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with
  | Sys_error e -> Error e
  | End_of_file -> Error (path ^ ": file shrank while being read")

let header_fields line =
  let* j = J.of_string line in
  let* magic = J.field "magic" J.to_str j in
  let* version = J.field "version" J.to_int j in
  let* checksum = J.field "checksum" J.to_str j in
  let* bytes = J.field "bytes" J.to_int j in
  Ok (magic, version, checksum, bytes)

(* The header line, then the payload read straight into the string
   returned: the file is never held whole. *)
let read fmt ~path =
  let err m = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) m in
  let parse ic =
    match input_line ic with
    | exception End_of_file -> err "truncated record (no header line)"
    | line when pos_in ic = String.length line ->
      (* The line ran to the end of the file: no newline ends it. *)
      err "truncated record (no header line)"
    | line -> (
      match header_fields line with
      | Error e -> err "malformed header: %s" e
      | Ok (m, _, _, _) when m <> fmt.magic ->
        err "not a portopt %s (magic %S)" fmt.noun m
      | Ok (_, v, _, _) when v < fmt.oldest || v > fmt.current ->
        err "unsupported %s version %d (this build reads versions %d-%d)"
          fmt.kind v fmt.oldest fmt.current
      | Ok (_, _, _, bytes) when bytes < 0 ->
        err "malformed header: negative payload length %d" bytes
      | Ok (_, version, sum, bytes) ->
        (* At most what the file holds, so a hostile length allocates
           nothing more.  One pass hashes the payload and finds where
           its line ends: a newline or the end of the file before
           [bytes] is truncation. *)
        let text =
          really_input_string ic
            (max 0 (min bytes (in_channel_length ic - pos_in ic)))
        in
        let fnv = Fnv.create () in
        let line = Fnv.add_line fnv text ~pos:0 ~len:(String.length text) in
        if line < bytes then
          err "truncated record (header promises %d payload bytes, found %d)"
            bytes line
        else
          let digest = Fnv.to_hex fnv in
          if "fnv1a64:" ^ digest <> sum then
            err
              "checksum mismatch (record corrupt?): header %s, payload \
               fnv1a64:%s"
              sum digest
          else Ok { version; digest; payload = text })
  in
  try
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> parse ic)
  with
  | Sys_error e -> Error e
  | End_of_file -> Error (path ^ ": file shrank while being read")

(* Unique per process (pid) and per write within it (seq). *)
let tmp_seq = Atomic.make 0

let write_atomic path chunks =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc = open_out_bin tmp in
  try
    List.iter (output_string oc) chunks;
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write ~path s =
  write_atomic path ((s.header :: "\n" :: s.chunks) @ [ "\n" ])

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
