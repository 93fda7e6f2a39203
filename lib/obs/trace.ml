(** JSONL event sink and reader — see trace.mli for the contract. *)

type level = Quiet | Info | Debug

let rank = function Quiet -> 0 | Info -> 1 | Debug -> 2

let level_to_string = function
  | Quiet -> "quiet"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string = function
  | "quiet" -> Ok Quiet
  | "info" -> Ok Info
  | "debug" -> Ok Debug
  | s -> Error (Printf.sprintf "unknown log level %S (quiet|info|debug)" s)

let current_level = Atomic.make (rank Info)

let set_level l = Atomic.set current_level (rank l)

let level () =
  match Atomic.get current_level with 0 -> Quiet | 1 -> Info | _ -> Debug

let verbose l = rank l <= Atomic.get current_level

let t0 = Clock.now_s ()

let elapsed () = Clock.now_s () -. t0

let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    let status = try Unix.close_process_in ic with _ -> Unix.WEXITED 1 in
    (match (status, line) with
    | Unix.WEXITED 0, l when l <> "" -> l
    | _ -> "unknown")

(* ---- the sink -------------------------------------------------------- *)

type sink = {
  oc : out_channel;
  mutable seq : int;
  opened_at : float;
  path : string;
  trace_id : string;
  process : string;
}

let sink_mutex = Mutex.create ()
let sink : sink option ref = ref None
let sink_open = Atomic.make false  (* lock-free fast path for [active] *)

(* Trace ids only need to be unique across the processes of one run;
   mixing start time and pid is plenty, and keeps lib/obs free of any
   RNG dependency.  Timing-derived, so outside the determinism contract
   (like the ts field of every event). *)
let gen_trace_id () =
  let bits = Int64.bits_of_float (Unix.gettimeofday ()) in
  let mixed =
    Int64.logxor
      (Int64.mul bits 0x9e3779b97f4a7c15L)
      (Int64.of_int (Unix.getpid () * 2654435761))
  in
  Printf.sprintf "%016Lx" mixed

let default_process () =
  Printf.sprintf "%s-%d"
    (Filename.remove_extension (Filename.basename Sys.executable_name))
    (Unix.getpid ())

let active () = Atomic.get sink_open

let on l = active () && verbose l

(* Called with [sink_mutex] held. *)
let emit_locked s ev fields =
  let record =
    Json.Obj
      (("ev", Json.Str ev)
      :: ("ts", Json.Float (elapsed ()))
      :: ("seq", Json.Int s.seq)
      :: fields)
  in
  s.seq <- s.seq + 1;
  output_string s.oc (Json.to_string record);
  output_char s.oc '\n'

let stop () =
  Mutex.lock sink_mutex;
  (match !sink with
  | None -> ()
  | Some s ->
    Atomic.set sink_open false;
    sink := None;
    emit_locked s "metrics" [ ("metrics", Metrics.snapshot ()) ];
    emit_locked s "stop"
      [
        ("dur_s", Json.Float (elapsed () -. s.opened_at));
        ("cpu_s", Json.Float (Clock.cpu_s ()));
      ];
    close_out s.oc);
  Mutex.unlock sink_mutex

let stop_at_exit_registered = ref false  (* guarded by sink_mutex *)

let repro_env () =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, Json.Str v)) (Sys.getenv_opt k))
    [ "REPRO_UARCHS"; "REPRO_OPTS"; "REPRO_SEED"; "REPRO_JOBS" ]

let start ?(manifest = []) ?trace_id ?process path =
  stop ();
  let trace_id =
    match trace_id with Some id -> id | None -> gen_trace_id ()
  in
  let process =
    match process with Some p -> p | None -> default_process ()
  in
  let oc = open_out path in
  Mutex.lock sink_mutex;
  let s = { oc; seq = 0; opened_at = elapsed (); path; trace_id; process } in
  emit_locked s "manifest"
    ([
       ("version", Json.Int 2);
       ("trace_id", Json.Str trace_id);
       ("process", Json.Str process);
       ("unix_time", Json.Float (Unix.gettimeofday ()));
       ("git", Json.Str (git_describe ()));
       ("ocaml", Json.Str Sys.ocaml_version);
       ( "argv",
         Json.List
           (Array.to_list (Array.map (fun a -> Json.Str a) Sys.argv)) );
       ("env", Json.Obj (repro_env ()));
     ]
    @ manifest);
  sink := Some s;
  Atomic.set sink_open true;
  if not !stop_at_exit_registered then begin
    stop_at_exit_registered := true;
    at_exit stop
  end;
  Mutex.unlock sink_mutex

let with_sink f =
  Mutex.lock sink_mutex;
  let r = match !sink with None -> None | Some s -> Some (f s) in
  Mutex.unlock sink_mutex;
  r

let trace_id () = with_sink (fun s -> s.trace_id)
let process_name () = with_sink (fun s -> s.process)
let path () = with_sink (fun s -> s.path)

let emit ?(level = Info) ev fields =
  if on level then begin
    Mutex.lock sink_mutex;
    (match !sink with
    | Some s when verbose level -> emit_locked s ev fields
    | _ -> ());
    Mutex.unlock sink_mutex
  end

(* ---- reading --------------------------------------------------------- *)

let read_file path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    let result =
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | line -> (
          match Json.of_string line with
          | Ok v -> go (lineno + 1) (v :: acc)
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
      in
      go 1 []
    in
    close_in ic;
    result

(* ---- schema ---------------------------------------------------------- *)

type fieldspec = Fint | Ffloat | Fstr | Fbool | Flist | Fobj | Fint_or_null

let check_field record (name, spec) =
  match (Json.member name record, spec) with
  | None, _ -> Error (Printf.sprintf "missing field %S" name)
  | Some (Json.Int _), (Fint | Fint_or_null) -> Ok ()
  | Some Json.Null, Fint_or_null -> Ok ()
  | Some (Json.Float _), Ffloat | Some (Json.Int _), Ffloat -> Ok ()
  | Some (Json.Str _), Fstr -> Ok ()
  | Some (Json.Bool _), Fbool -> Ok ()
  | Some (Json.List _), Flist -> Ok ()
  | Some (Json.Obj _), Fobj -> Ok ()
  | Some _, _ -> Error (Printf.sprintf "field %S has the wrong type" name)

(* Required fields per event type, beyond the common ev/ts/seq. *)
let schema =
  [
    ("manifest", [ ("version", Fint); ("unix_time", Ffloat); ("git", Fstr);
                   ("argv", Flist); ("env", Fobj) ]);
    ("span_begin", [ ("id", Fint); ("parent", Fint_or_null); ("name", Fstr) ]);
    ("span_end", [ ("id", Fint); ("name", Fstr); ("dur_s", Ffloat);
                   ("cpu_s", Ffloat); ("ok", Fbool) ]);
    ("event", [ ("name", Fstr); ("parent", Fint_or_null) ]);
    ("tick", [ ("name", Fstr); ("done", Fint); ("total", Fint);
               ("eta_s", Ffloat) ]);
    ("log", [ ("msg", Fstr) ]);
    ("metrics", [ ("metrics", Fobj) ]);
    ("stop", [ ("dur_s", Ffloat); ("cpu_s", Ffloat) ]);
  ]

let validate_event record =
  let common = [ ("ev", Fstr); ("ts", Ffloat); ("seq", Fint) ] in
  let rec all = function
    | [] -> Ok ()
    | f :: rest -> (
      match check_field record f with Ok () -> all rest | Error _ as e -> e)
  in
  match all common with
  | Error _ as e -> e
  | Ok () -> (
    let ev = Option.get (Json.to_str (Option.get (Json.member "ev" record))) in
    match List.assoc_opt ev schema with
    | None -> Error (Printf.sprintf "unknown event type %S" ev)
    | Some fields -> (
      match all fields with
      | Ok () -> Ok ()
      | Error e -> Error (Printf.sprintf "%s: %s" ev e)))

let validate_file path =
  match read_file path with
  | Error _ as e -> e
  | Ok [] -> Error "empty trace"
  | Ok (first :: _ as events) ->
    if Json.member "ev" first <> Some (Json.Str "manifest") then
      Error "first event is not a manifest"
    else
      let rec go i = function
        | [] -> Ok events
        | record :: rest -> (
          match validate_event record with
          | Error e -> Error (Printf.sprintf "event %d: %s" i e)
          | Ok () ->
            if Json.member "seq" record <> Some (Json.Int i) then
              Error (Printf.sprintf "event %d: seq out of order" i)
            else go (i + 1) rest)
      in
      go 0 events
