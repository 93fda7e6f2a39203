(** Blocking client for the prediction server: one request line out,
    one response line back, over a TCP or Unix-domain stream socket.
    Used by [portopt query], the serve benchmark and the tests.

    Idempotent ops ([predict], [predict_batch], [health], [metrics])
    survive a dead connection: on a transport failure (ECONNRESET,
    server restart, EOF mid-response) the client redials the stored
    address after a {!Prelude.Backoff} delay and resends — by default
    once, so a hot server restart is invisible to read-only callers.
    Non-idempotent ops ([shutdown], [sleep], [reload]) never resend:
    the first attempt may have been applied before the socket died. *)

module J = Obs.Json

type t = {
  address : Net.Addr.t;
  reconnect : Prelude.Backoff.policy;
  wire : Net.Codec.mode;  (** Frame format for requests; replies match. *)
  mutable fd : Unix.file_descr;
  mutable reader : Net.Codec.reader;  (** Bounded dual-format framing. *)
}

(* One redial per transport failure by default: enough to ride out a
   server restart, not enough to hammer a dead address. *)
let default_reconnect = { Prelude.Backoff.default with max_retries = 1 }

(* Binary framing by default: same JSON payloads, cheaper framing, and
   it exercises the negotiation path everywhere.  [~wire:Json] keeps a
   connection human-readable for debugging. *)
let connect ?(reconnect = default_reconnect) ?(wire = Net.Codec.Binary) address =
  let fd = Net.Addr.connect address in
  { address; reconnect; wire; fd; reader = Net.Codec.reader fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let reconnect_now t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  let fd = Net.Addr.connect t.address in
  t.fd <- fd;
  t.reader <- Net.Codec.reader fd

(* Failures split by what a retry could fix: [Transport] means the
   socket died (reconnect + resend can help, for idempotent ops);
   [Malformed] covers everything a fresh connection cannot cure —
   server-side errors, oversized frames, unparseable responses. *)
type failure = Transport of string | Malformed of int * string

let round_trip t (j : J.t) : (J.t, failure) result =
  match Net.Codec.write t.fd t.wire (J.to_string j) with
  | Error e -> Error (Transport (Net.Codec.error_to_string e))
  | Ok () -> (
    match Net.Codec.read t.reader with
    | Ok (_mode, line) -> (
      match J.of_string line with
      | Ok j -> Ok j
      | Error e -> Error (Malformed (0, "malformed response: " ^ e)))
    | Error Net.Codec.Closed -> Error (Transport "connection closed by server")
    | Error (Net.Codec.Io _ as e) ->
      Error (Transport (Net.Codec.error_to_string e))
    | Error (Net.Codec.Eof_mid_frame as e) ->
      Error (Transport (Net.Codec.error_to_string e))
    | Error e -> Error (Malformed (0, Net.Codec.error_to_string e)))

let request t (j : J.t) : (J.t, string) result =
  match round_trip t j with
  | Ok j -> Ok j
  | Error (Transport e) | Error (Malformed (_, e)) -> Error e

(* Typed helpers.  Errors carry the server's HTTP-style code, or 0 for
   transport/parse failures — so callers can distinguish a 429 shed from
   a dead socket. *)

let ( let* ) = Result.bind

(* The retry jitter stream only decides *when* to knock again, never
   what is computed, so seeding it from wall time and pid is outside
   the determinism contract. *)
let jitter_rng () =
  Prelude.Rng.create
    ((Unix.getpid () * 1_000_003)
    lxor (int_of_float (Unix.gettimeofday () *. 1e6) land max_int))

let checked ?(idempotent = false) t req =
  let send () =
    (* When this process is tracing, stamp the request with the current
       span address so the server's trace stitches under ours; [None]
       (the common case) adds nothing to the wire. *)
    let trace = Obs.Span.current_context () in
    let* j = round_trip t (Protocol.request_to_json ?trace req) in
    Result.map_error
      (fun (code, e) -> Malformed (code, e))
      (Protocol.check_response j)
  in
  let result =
    if not idempotent then send ()
    else
      let rng = jitter_rng () in
      Prelude.Backoff.retry t.reconnect ~rng ~sleep:Thread.delay
        ~retryable:(function Transport _ -> true | Malformed _ -> false)
        (fun ~attempt ->
          if attempt = 0 then send ()
          else
            match reconnect_now t with
            | () -> send ()
            | exception e ->
              Error (Transport ("reconnect failed: " ^ Printexc.to_string e)))
  in
  match result with
  | Ok j -> Ok j
  | Error (Transport e) -> Error (0, e)
  | Error (Malformed (code, e)) -> Error (code, e)

let predict_once t ?objective ~counters ~uarch () =
  let* j =
    checked ~idempotent:true t
      (Protocol.Predict { counters; uarch; objective })
  in
  Result.map_error (fun e -> (0, e)) (Protocol.prediction_of_json j)

let predict ?backoff ?objective t ~counters ~uarch =
  match backoff with
  | None -> predict_once t ?objective ~counters ~uarch ()
  | Some policy ->
    let rng = jitter_rng () in
    Prelude.Backoff.retry policy ~rng ~sleep:Thread.delay
      ~retryable:(fun (code, _) -> code = 429)
      (fun ~attempt:_ -> predict_once t ?objective ~counters ~uarch ())

let predict_batch ?objective t queries =
  let* j =
    checked ~idempotent:true t
      (Protocol.Predict_batch { queries; objective })
  in
  match Protocol.batch_of_json j with
  | Error e -> Error (0, e)
  | Ok results when Array.length results <> Array.length queries ->
    Error
      ( 0,
        Printf.sprintf "batch response has %d results for %d queries"
          (Array.length results) (Array.length queries) )
  | Ok results -> Ok results

let health t = checked ~idempotent:true t Protocol.Health

let metrics t =
  let* j = checked ~idempotent:true t Protocol.Metrics in
  match J.member "metrics" j with
  | Some m -> Ok m
  | None -> Error (0, "metrics response missing \"metrics\" field")

let reload t = checked t Protocol.Reload
let shutdown t = checked t Protocol.Shutdown
let sleep t seconds = checked t (Protocol.Sleep seconds)
