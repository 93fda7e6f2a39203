(** Tests for the shared non-blocking I/O core: Bytebuf FIFO mechanics,
    dual-format codec framing (round-trips, incremental decoding, hostile
    length prefixes), the readiness loop (posted closures, timers, nudge),
    per-connection state machines (mode latching, typed faults,
    slowloris fairness, output bounds), addresses (parsing, resolution
    errors) and the listener (bind failures, stale and live socket
    files, the drain lifecycle). *)

let check = Alcotest.check

module Bytebuf = Prelude.Bytebuf
module Codec = Net.Codec
module Loop = Net.Loop
module Conn = Net.Conn
module Addr = Net.Addr
module Listener = Net.Listener

(* ---- Bytebuf ----------------------------------------------------------- *)

let test_bytebuf_fifo () =
  let b = Bytebuf.create () in
  check Alcotest.bool "fresh is empty" true (Bytebuf.is_empty b);
  Bytebuf.add_string b "hello";
  Bytebuf.add_char b ' ';
  Bytebuf.add_string b "world";
  check Alcotest.int "length" 11 (Bytebuf.length b);
  check Alcotest.string "sub_string head" "hello" (Bytebuf.sub_string b 0 5);
  check Alcotest.(option int) "index_from 0" (Some 6) (Bytebuf.index_from b 0 'w');
  check Alcotest.(option int) "index_from past" None (Bytebuf.index_from b 7 'w');
  Bytebuf.consume b 6;
  check Alcotest.int "length after consume" 5 (Bytebuf.length b);
  check Alcotest.string "head moved" "world" (Bytebuf.sub_string b 0 5);
  check Alcotest.bool "get tracks head" true (Bytebuf.get b 0 = 'w');
  (match Bytebuf.consume b 6 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "over-consume must raise");
  Bytebuf.consume b 5;
  check Alcotest.bool "drained" true (Bytebuf.is_empty b);
  Bytebuf.add_string b "again";
  Bytebuf.clear b;
  check Alcotest.bool "clear empties" true (Bytebuf.is_empty b)

let test_bytebuf_reserve_commit () =
  (* Start tiny so reserve must grow and compact around a consumed head. *)
  let b = Bytebuf.create ~capacity:8 () in
  Bytebuf.add_string b "abcdefgh";
  Bytebuf.consume b 4;
  let payload = String.init 100 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let store, pos = Bytebuf.reserve b 100 in
  Bytes.blit_string payload 0 store pos 100;
  Bytebuf.commit b 100;
  check Alcotest.int "length" 104 (Bytebuf.length b);
  check Alcotest.string "survivors first" "efgh" (Bytebuf.sub_string b 0 4);
  check Alcotest.string "reserved bytes follow" payload
    (Bytebuf.sub_string b 4 100);
  let buf, off, len = Bytebuf.peek b in
  check Alcotest.int "peek sees everything" 104 len;
  check Alcotest.string "peek content" ("efgh" ^ payload)
    (Bytes.sub_string buf off len)

(* ---- Codec: pure decoding ---------------------------------------------- *)

let frame_pp = function
  | Ok None -> "ok none"
  | Ok (Some (m, p)) -> Printf.sprintf "ok %s %S" (Codec.mode_to_string m) p
  | Error e -> Codec.error_to_string e

let expect_frame d mode payload =
  match Codec.next d with
  | Ok (Some (m, p)) when m = mode && p = payload -> ()
  | other ->
    Alcotest.failf "expected %s %S, got %s" (Codec.mode_to_string mode)
      payload (frame_pp other)

let test_codec_roundtrip () =
  List.iter
    (fun payload ->
      List.iter
        (fun mode ->
          let d = Codec.decoder () in
          Bytebuf.add_string (Codec.buffer d) (Codec.encode mode payload);
          expect_frame d mode payload;
          match Codec.next d with
          | Ok None -> ()
          | other -> Alcotest.failf "trailing bytes: %s" (frame_pp other))
        [ Codec.Json; Codec.Binary ])
    [
      "{}";
      "{\"op\":\"predict\",\"x\":[1,2,3]}";
      String.make 100_000 'q';
      (* A payload whose body contains the binary magic byte: framing must
         not resynchronise on it. *)
      Printf.sprintf "{\"blob\":\"%c%c%c\"}" Codec.magic Codec.magic '\x00';
    ]

let test_codec_interleaved_incremental () =
  (* Alternating formats on one stream, delivered a byte at a time: each
     frame must emerge exactly once, in order, only when complete. *)
  let frames =
    [
      (Codec.Binary, "{\"n\":1}");
      (Codec.Json, "{\"n\":2}");
      (Codec.Binary, String.make 3000 'b');
      (Codec.Json, "{\"n\":4}");
    ]
  in
  let stream =
    String.concat "" (List.map (fun (m, p) -> Codec.encode m p) frames)
  in
  let d = Codec.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      Bytebuf.add_char (Codec.buffer d) c;
      let rec drain () =
        match Codec.next d with
        | Ok (Some f) ->
          got := f :: !got;
          drain ()
        | Ok None -> ()
        | Error e -> Alcotest.failf "decode error: %s" (Codec.error_to_string e)
      in
      drain ())
    stream;
  let got = List.rev !got in
  check Alcotest.int "frame count" (List.length frames) (List.length got);
  List.iter2
    (fun (em, ep) (gm, gp) ->
      check Alcotest.string "mode" (Codec.mode_to_string em)
        (Codec.mode_to_string gm);
      check Alcotest.string "payload" ep gp)
    frames got

let header n =
  let b = Bytes.create Codec.header_len in
  Bytes.set b 0 Codec.magic;
  Bytes.set_int32_be b 1 (Int32.of_int n);
  Bytes.to_string b

let test_codec_bad_length_prefixes () =
  (* Zero, oversized and garbage (wraps to huge) length prefixes must be
     rejected before any payload is buffered, and the error is sticky. *)
  List.iter
    (fun (declared, expect_declared) ->
      let d = Codec.decoder () in
      Bytebuf.add_string (Codec.buffer d) (header declared);
      (match Codec.next d with
      | Error (Codec.Bad_length (n, limit)) ->
        check Alcotest.int "declared" expect_declared n;
        check Alcotest.int "limit" Codec.default_max_frame limit
      | other -> Alcotest.failf "expected bad-length, got %s" (frame_pp other));
      (* Sticky: the stream has lost framing for good. *)
      Bytebuf.add_string (Codec.buffer d) (Codec.encode Codec.Binary "{}");
      match Codec.next d with
      | Error (Codec.Bad_length _) -> ()
      | other -> Alcotest.failf "error must stick, got %s" (frame_pp other))
    [
      (0, 0);
      (Codec.default_max_frame + 1, Codec.default_max_frame + 1);
      (-1, 0xFFFFFFFF) (* 0xFFFFFFFF on the wire reads back unsigned *);
    ]

let test_codec_oversized_json () =
  let d = Codec.decoder ~max_frame:64 () in
  Bytebuf.add_string (Codec.buffer d) (String.make 100 'x');
  (match Codec.next d with
  | Error (Codec.Oversized n) -> check Alcotest.int "bound" 64 n
  | other -> Alcotest.failf "expected oversized, got %s" (frame_pp other));
  (* A newline-terminated line over the bound trips it too. *)
  let d = Codec.decoder ~max_frame:64 () in
  Bytebuf.add_string (Codec.buffer d) (String.make 80 'y' ^ "\n");
  match Codec.next d with
  | Error (Codec.Oversized _) -> ()
  | other -> Alcotest.failf "expected oversized, got %s" (frame_pp other)

(* ---- Codec: blocking transport ----------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_codec_blocking_roundtrip () =
  with_socketpair (fun a b ->
      (match Codec.write b Codec.Binary "{\"first\":true}" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (Codec.error_to_string e));
      (match Codec.write b Codec.Json "{\"second\":true}" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (Codec.error_to_string e));
      let r = Codec.reader a in
      (match Codec.read r with
      | Ok (Codec.Binary, p) -> check Alcotest.string "binary" "{\"first\":true}" p
      | other ->
        Alcotest.failf "expected binary frame, got %s"
          (match other with
          | Ok (m, p) -> Printf.sprintf "%s %S" (Codec.mode_to_string m) p
          | Error e -> Codec.error_to_string e));
      (match Codec.read r with
      | Ok (Codec.Json, p) -> check Alcotest.string "json" "{\"second\":true}" p
      | _ -> Alcotest.fail "expected json frame");
      Unix.close b;
      match Codec.read r with
      | Error Codec.Closed -> ()
      | other -> Alcotest.failf "expected clean close, got %s"
                   (match other with
                   | Ok (_, p) -> Printf.sprintf "ok %S" p
                   | Error e -> Codec.error_to_string e))

let test_codec_blocking_eof_mid_frame () =
  with_socketpair (fun a b ->
      (* Header promising 10 bytes, then 3, then EOF. *)
      ignore (Unix.write_substring b (header 10) 0 Codec.header_len);
      ignore (Unix.write_substring b "abc" 0 3);
      Unix.close b;
      let r = Codec.reader a in
      match Codec.read r with
      | Error Codec.Eof_mid_frame -> ()
      | Error e -> Alcotest.failf "expected eof-mid-frame, got %s"
                     (Codec.error_to_string e)
      | Ok _ -> Alcotest.fail "expected eof-mid-frame, got a frame")

let test_codec_poll_timeout () =
  with_socketpair (fun a b ->
      let r = Codec.reader a in
      (match Codec.poll r ~timeout:0.05 with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "nothing was sent"
      | Error e -> Alcotest.failf "poll: %s" (Codec.error_to_string e));
      (match Codec.write b Codec.Binary "{\"late\":1}" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (Codec.error_to_string e));
      match Codec.poll r ~timeout:1.0 with
      | Ok (Some (Codec.Binary, p)) ->
        check Alcotest.string "late frame" "{\"late\":1}" p
      | Ok (Some _) | Ok None -> Alcotest.fail "frame not seen"
      | Error e -> Alcotest.failf "poll: %s" (Codec.error_to_string e))

(* ---- Loop --------------------------------------------------------------- *)

(* A loop running on its own thread, as servers use it. *)
let with_loop f =
  let loop = Loop.create () in
  let thread = Thread.create Loop.run loop in
  Fun.protect
    ~finally:(fun () ->
      Loop.stop loop;
      Thread.join thread)
    (fun () -> f loop)

(* Run [f] on the loop thread and wait for its result; exceptions
   propagate to the caller. *)
let on_loop loop f =
  let result = ref None in
  let m = Mutex.create () and c = Condition.create () in
  Loop.post loop (fun () ->
      let r = try Ok (f ()) with e -> Error e in
      Mutex.lock m;
      result := Some r;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while Option.is_none !result do
    Condition.wait c m
  done;
  Mutex.unlock m;
  match Option.get !result with Ok v -> v | Error e -> raise e

let wait_for ?(timeout = 5.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let test_loop_post_and_timers () =
  with_loop (fun loop ->
      let order = ref [] in
      let push tag = order := tag :: !order in
      (* Posted closures run on the loop thread, promptly. *)
      on_loop loop (fun () -> push "posted");
      (* Timers fire in deadline order; a cancelled timer never fires. *)
      on_loop loop (fun () ->
          let doomed = Loop.after loop 0.01 (fun () -> push "doomed") in
          ignore (Loop.after loop 0.05 (fun () -> push "late"));
          ignore (Loop.after loop 0.01 (fun () -> push "early"));
          Loop.cancel doomed;
          Loop.cancel doomed (* idempotent *));
      wait_for "timers" (fun () -> on_loop loop (fun () -> List.length !order) = 3);
      check
        Alcotest.(list string)
        "order" [ "posted"; "early"; "late" ]
        (List.rev (on_loop loop (fun () -> !order))))

let test_loop_nudge_runs_on_wake () =
  let loop = Loop.create () in
  let wakes = Atomic.make 0 in
  Loop.set_on_wake loop (fun () -> Atomic.incr wakes);
  let thread = Thread.create Loop.run loop in
  Fun.protect
    ~finally:(fun () ->
      Loop.stop loop;
      Thread.join thread)
    (fun () ->
      let before = Atomic.get wakes in
      Loop.nudge loop;
      wait_for "on_wake" (fun () -> Atomic.get wakes > before))

(* ---- Conn --------------------------------------------------------------- *)

(* An echo connection: every decoded payload is sent straight back in the
   connection's latched mode.  Returns the recorded close reason. *)
let attach_echo ?out_limit loop fd =
  let reason = ref None in
  let conn =
    on_loop loop (fun () ->
        Conn.attach loop fd ?out_limit
          ~on_frame:(fun c payload -> Conn.send c payload)
          ~on_closed:(fun _ r -> reason := Some r)
          ())
  in
  (conn, reason)

let test_conn_echo_latches_mode () =
  with_loop (fun loop ->
      (* One binary client, one JSON client, one server loop: each gets
         replies framed the way it spoke first. *)
      with_socketpair (fun srv_a cli_a ->
          with_socketpair (fun srv_b cli_b ->
              let _, _ = attach_echo loop srv_a in
              let _, _ = attach_echo loop srv_b in
              (match Codec.write cli_a Codec.Binary "{\"who\":\"a\"}" with
              | Ok () -> ()
              | Error e -> Alcotest.failf "write: %s" (Codec.error_to_string e));
              (match Codec.write cli_b Codec.Json "{\"who\":\"b\"}" with
              | Ok () -> ()
              | Error e -> Alcotest.failf "write: %s" (Codec.error_to_string e));
              (match Codec.read (Codec.reader cli_a) with
              | Ok (Codec.Binary, p) ->
                check Alcotest.string "binary echo" "{\"who\":\"a\"}" p
              | Ok (Codec.Json, _) -> Alcotest.fail "binary client got json"
              | Error e -> Alcotest.failf "read: %s" (Codec.error_to_string e));
              match Codec.read (Codec.reader cli_b) with
              | Ok (Codec.Json, p) ->
                check Alcotest.string "json echo" "{\"who\":\"b\"}" p
              | Ok (Codec.Binary, _) -> Alcotest.fail "json client got binary"
              | Error e -> Alcotest.failf "read: %s" (Codec.error_to_string e))))

let test_conn_hostile_header_faults () =
  with_loop (fun loop ->
      with_socketpair (fun srv cli ->
          let _, reason = attach_echo loop srv in
          (* Garbage length prefix: the server must drop the connection
             with a typed fault, not hang or buffer. *)
          ignore (Unix.write_substring cli (header (-1)) 0 Codec.header_len);
          wait_for "fault close" (fun () -> !reason <> None);
          match !reason with
          | Some (Conn.Fault (Codec.Bad_length (n, _))) ->
            check Alcotest.int "declared length" 0xFFFFFFFF n
          | Some r ->
            Alcotest.failf "expected bad-length fault, got %s"
              (Conn.close_reason_to_string r)
          | None -> assert false))

let test_conn_slowloris_does_not_starve () =
  with_loop (fun loop ->
      with_socketpair (fun srv_slow cli_slow ->
          with_socketpair (fun srv_fast cli_fast ->
              let _, _ = attach_echo loop srv_slow in
              let _, _ = attach_echo loop srv_fast in
              (* The slow client commits to a 12-byte frame and stalls
                 after 2 bytes. *)
              ignore
                (Unix.write_substring cli_slow (header 12) 0 Codec.header_len);
              ignore (Unix.write_substring cli_slow "{\"" 0 2);
              (* The fast client must still complete many round-trips. *)
              let r = Codec.reader cli_fast in
              for i = 0 to 49 do
                let payload = Printf.sprintf "{\"i\":%d}" i in
                (match Codec.write cli_fast Codec.Binary payload with
                | Ok () -> ()
                | Error e ->
                  Alcotest.failf "write %d: %s" i (Codec.error_to_string e));
                match Codec.read r with
                | Ok (_, p) -> check Alcotest.string "echo" payload p
                | Error e ->
                  Alcotest.failf "read %d: %s" i (Codec.error_to_string e)
              done;
              (* The stalled frame still completes once the bytes arrive. *)
              ignore (Unix.write_substring cli_slow "ok\":true}" 0 9);
              ignore (Unix.write_substring cli_slow "x" 0 1);
              match Codec.read (Codec.reader cli_slow) with
              | Ok (Codec.Binary, p) ->
                check Alcotest.string "slow echo" "{\"ok\":true}x" p
              | Ok (Codec.Json, _) -> Alcotest.fail "slow client got json"
              | Error e -> Alcotest.failf "slow read: %s" (Codec.error_to_string e))))

let test_conn_out_limit_disconnects () =
  with_loop (fun loop ->
      with_socketpair (fun srv cli ->
          let reason = ref None in
          let big = String.make 65536 'z' in
          let _ =
            on_loop loop (fun () ->
                Conn.attach loop srv ~out_limit:1024
                  ~on_frame:(fun c _ ->
                    (* Reply with far more than the peer will read: once
                       the socket jams, the bounded buffer must cut the
                       connection loose instead of growing. *)
                    for _ = 1 to 256 do
                      Conn.send c big
                    done)
                  ~on_closed:(fun _ r -> reason := Some r)
                  ())
          in
          (match Codec.write cli Codec.Binary "{\"go\":1}" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "write: %s" (Codec.error_to_string e));
          (* Never read from [cli]. *)
          wait_for "out-limit close" (fun () -> !reason <> None);
          match !reason with
          | Some (Conn.Fault (Codec.Io _)) -> ()
          | Some r ->
            Alcotest.failf "expected io fault, got %s"
              (Conn.close_reason_to_string r)
          | None -> assert false))

let test_conn_close_after_flush () =
  with_loop (fun loop ->
      with_socketpair (fun srv cli ->
          let reason = ref None in
          let _ =
            on_loop loop (fun () ->
                Conn.attach loop srv
                  ~on_frame:(fun c payload ->
                    Conn.send c payload;
                    Conn.close_after_flush c)
                  ~on_closed:(fun _ r -> reason := Some r)
                  ())
          in
          (match Codec.write cli Codec.Binary "{\"bye\":1}" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "write: %s" (Codec.error_to_string e));
          (* The farewell frame arrives, then a clean EOF. *)
          let r = Codec.reader cli in
          (match Codec.read r with
          | Ok (Codec.Binary, p) -> check Alcotest.string "farewell" "{\"bye\":1}" p
          | Ok _ -> Alcotest.fail "expected binary farewell"
          | Error e -> Alcotest.failf "read: %s" (Codec.error_to_string e));
          (match Codec.read r with
          | Error Codec.Closed -> ()
          | Ok _ -> Alcotest.fail "expected eof after farewell"
          | Error e -> Alcotest.failf "expected closed, got %s"
                         (Codec.error_to_string e));
          wait_for "local close" (fun () -> !reason = Some Conn.Local)))

(* ---- Addr --------------------------------------------------------------- *)

let addr_pp = function
  | Ok a -> "ok " ^ Addr.to_string a
  | Error e -> "error " ^ e

let contains needle hay =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_addr_of_string () =
  (match Addr.of_string "127.0.0.1:8400" with
  | Ok (Addr.Tcp ("127.0.0.1", 8400)) -> ()
  | other -> Alcotest.failf "tcp: %s" (addr_pp other));
  (match Addr.of_string "/tmp/cluster.sock" with
  | Ok (Addr.Unix_path "/tmp/cluster.sock") -> ()
  | other -> Alcotest.failf "unix: %s" (addr_pp other));
  List.iter
    (fun s ->
      match Addr.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error e ->
        (* Each CLI caller names its own flag. *)
        check Alcotest.bool ("no flag in: " ^ e) false (contains "--" e))
    [ "nohost"; "host:notaport"; "host:0"; "host:65536"; "" ]

let test_addr_round_trip () =
  List.iter
    (fun a ->
      match Addr.of_string (Addr.to_string a) with
      | Ok b when b = a -> ()
      | other ->
        Alcotest.failf "%s read back as %s" (Addr.to_string a) (addr_pp other))
    [
      Addr.Tcp ("127.0.0.1", 1);
      Addr.Tcp ("localhost", 65535);
      Addr.Tcp ("0.0.0.0", 7980);
      Addr.Unix_path "/tmp/portopt.sock";
      Addr.Unix_path "results/serve_smoke/portopt.sock";
    ]

let test_addr_unresolvable_host () =
  (* Resolution failure is a Unix_error, like a refused connection —
     never an escaping Not_found. *)
  let a = Addr.Tcp ("no.such.host.invalid", 7979) in
  let typed what f =
    match f () with
    | _ -> Alcotest.failf "%s resolved an .invalid host" what
    | exception Unix.Unix_error _ -> ()
  in
  typed "sockaddr" (fun () -> ignore (Addr.sockaddr a));
  typed "connect" (fun () -> Unix.close (Addr.connect a))

(* ---- Listener ----------------------------------------------------------- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let sock_path () =
  let p = Filename.temp_file "portopt_net" ".sock" in
  Sys.remove p;
  p

(* A started listener whose connections echo every frame; its drain
   closes whatever is still open. *)
let echo_listener addr =
  let l = Listener.listen addr in
  Listener.start l ~attach:Fun.id
    ~on_frame:(fun c payload -> Conn.send c payload)
    ~on_closed:(fun _ _ -> ())
    ~on_drain:(fun () -> List.iter Conn.close (Listener.connections l))
    ();
  l

let with_listener addr f =
  let l = echo_listener addr in
  Fun.protect
    ~finally:(fun () ->
      Listener.stop l;
      Listener.wait l)
    (fun () -> f l)

let echo_once addr payload =
  let fd = Addr.connect addr in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (match Codec.write fd Codec.Json payload with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (Codec.error_to_string e));
      match Codec.read (Codec.reader fd) with
      | Ok (_, p) -> p
      | Error e -> Alcotest.failf "read: %s" (Codec.error_to_string e))

let test_listener_taken_port_leaks_nothing () =
  with_listener (Addr.Tcp ("127.0.0.1", 0)) (fun l ->
      let before = open_fds () in
      for _ = 1 to 5 do
        match Listener.listen (Listener.address l) with
        | _ -> Alcotest.fail "bound a port that is in use"
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
      done;
      check Alcotest.int "open fds unchanged" before (open_fds ()))

let test_listener_stale_and_live_sockets () =
  let path = sock_path () in
  let addr = Addr.Unix_path path in
  (* What a killed server leaves behind: a socket file nobody answers. *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  check Alcotest.bool "stale file present" true (Sys.file_exists path);
  with_listener addr (fun _ ->
      check Alcotest.string "stale file replaced" "{\"a\":1}"
        (echo_once addr "{\"a\":1}");
      (match Listener.listen addr with
      | _ -> Alcotest.fail "took over a live server's socket"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
      check Alcotest.string "live server still answers" "{\"b\":2}"
        (echo_once addr "{\"b\":2}"))

(* Stop twice, then watch the drain: the socket closes at once, but the
   loop runs on until the last connection goes, and only then does
   [wait] return. *)
let check_drain addr =
  let l = Listener.listen addr in
  let addr = Listener.address l in
  let drains = Atomic.make 0 in
  Listener.start l ~attach:Fun.id
    ~on_frame:(fun c payload -> Conn.send c payload)
    ~on_closed:(fun _ _ -> ())
    ~on_drain:(fun () -> Atomic.incr drains)
    ();
  let client = Addr.connect addr in
  (match Codec.write client Codec.Json "{}" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" (Codec.error_to_string e));
  ignore (Codec.read (Codec.reader client));
  let waited = Atomic.make false in
  let waiter =
    Thread.create
      (fun () ->
        Listener.wait l;
        Atomic.set waited true)
      ()
  in
  Listener.stop l;
  Listener.stop l;
  wait_for "drain" (fun () -> Atomic.get drains > 0);
  (match addr with
  | Addr.Unix_path p ->
    check Alcotest.bool "socket path unlinked" false (Sys.file_exists p)
  | Addr.Tcp _ -> ());
  (match Addr.connect addr with
  | fd ->
    Unix.close fd;
    Alcotest.fail "still accepting after the drain"
  | exception Unix.Unix_error _ -> ());
  Thread.delay 0.1;
  check Alcotest.bool "loop outlives the open connection" false
    (Atomic.get waited);
  Unix.close client;
  wait_for "wait returns" (fun () -> Atomic.get waited);
  Thread.join waiter;
  Listener.wait l;
  check Alcotest.int "one drain for two stops" 1 (Atomic.get drains)

let test_listener_drain_lifecycle () =
  check_drain (Addr.Unix_path (sock_path ()));
  check_drain (Addr.Tcp ("127.0.0.1", 0))

let () =
  Alcotest.run "net"
    [
      ( "bytebuf",
        [
          Alcotest.test_case "fifo append/consume" `Quick test_bytebuf_fifo;
          Alcotest.test_case "reserve/commit across compaction" `Quick
            test_bytebuf_reserve_commit;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round-trip both modes" `Quick test_codec_roundtrip;
          Alcotest.test_case "interleaved, byte at a time" `Quick
            test_codec_interleaved_incremental;
          Alcotest.test_case "bad length prefixes are typed and sticky" `Quick
            test_codec_bad_length_prefixes;
          Alcotest.test_case "oversized json line" `Quick
            test_codec_oversized_json;
          Alcotest.test_case "blocking round-trip and clean close" `Quick
            test_codec_blocking_roundtrip;
          Alcotest.test_case "blocking eof mid-frame" `Quick
            test_codec_blocking_eof_mid_frame;
          Alcotest.test_case "poll times out then delivers" `Quick
            test_codec_poll_timeout;
        ] );
      ( "loop",
        [
          Alcotest.test_case "post and timers in order" `Quick
            test_loop_post_and_timers;
          Alcotest.test_case "nudge runs on_wake" `Quick
            test_loop_nudge_runs_on_wake;
        ] );
      ( "conn",
        [
          Alcotest.test_case "echo latches reply mode" `Quick
            test_conn_echo_latches_mode;
          Alcotest.test_case "hostile length prefix faults" `Quick
            test_conn_hostile_header_faults;
          Alcotest.test_case "slowloris does not starve others" `Quick
            test_conn_slowloris_does_not_starve;
          Alcotest.test_case "output limit disconnects non-reader" `Quick
            test_conn_out_limit_disconnects;
          Alcotest.test_case "close after flush delivers farewell" `Quick
            test_conn_close_after_flush;
        ] );
      ( "addr",
        [
          Alcotest.test_case "of_string" `Quick test_addr_of_string;
          Alcotest.test_case "to_string round-trip" `Quick test_addr_round_trip;
          Alcotest.test_case "unresolvable host is a Unix_error" `Quick
            test_addr_unresolvable_host;
        ] );
      ( "listener",
        [
          Alcotest.test_case "taken port leaks no fd" `Quick
            test_listener_taken_port_leaks_nothing;
          Alcotest.test_case "stale socket replaced, live one refused" `Quick
            test_listener_stale_and_live_sockets;
          Alcotest.test_case "drain lifecycle" `Quick
            test_listener_drain_lifecycle;
        ] );
    ]
