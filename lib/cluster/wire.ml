(** Cluster wire codecs — see wire.mli for the message inventory. *)

module J = Obs.Json

let max_frame = 1 lsl 26

type to_coordinator =
  | Register of { name : string; pid : int; fingerprint : string }
  | Heartbeat
  | Result of {
      job : int;
      lease : int;
      task : int;
      key : string;
      checksum : string;
      run : J.t;
    }
  | Task_error of { job : int; lease : int; task : int; error : string }
  | Lease_done of { job : int; lease : int }
  | Metrics_query

type to_worker =
  | Welcome of { worker : int }
  | Reject of { reason : string }
  | Lease of {
      job : int;
      lease : int;
      deadline_s : float;
      tasks : (int * Task.t) list;
      trace : Obs.Span.context option;
          (** Coordinator-side span address: workers record their lease
              spans as remote children of it, so per-process traces
              stitch into one tree. *)
    }
  | Metrics of { snapshot : J.t }
  | Quit

(* Shared field accessors: every message is an Obj tagged with "type". *)

let ( let* ) = Result.bind

let field name conv j =
  Result.map_error (fun e -> "cluster: " ^ e) (J.field name conv j)

let tag_of j =
  field "type" J.to_str j

let to_coordinator_to_json = function
  | Register { name; pid; fingerprint } ->
    J.Obj
      [
        ("type", J.Str "register");
        ("name", J.Str name);
        ("pid", J.Int pid);
        ("fingerprint", J.Str fingerprint);
      ]
  | Heartbeat -> J.Obj [ ("type", J.Str "heartbeat") ]
  | Metrics_query -> J.Obj [ ("type", J.Str "metrics_query") ]
  | Result { job; lease; task; key; checksum; run } ->
    J.Obj
      [
        ("type", J.Str "result");
        ("job", J.Int job);
        ("lease", J.Int lease);
        ("task", J.Int task);
        ("key", J.Str key);
        ("checksum", J.Str checksum);
        ("run", run);
      ]
  | Task_error { job; lease; task; error } ->
    J.Obj
      [
        ("type", J.Str "task_error");
        ("job", J.Int job);
        ("lease", J.Int lease);
        ("task", J.Int task);
        ("error", J.Str error);
      ]
  | Lease_done { job; lease } ->
    J.Obj
      [ ("type", J.Str "lease_done"); ("job", J.Int job); ("lease", J.Int lease) ]

let to_coordinator_of_json j =
  let* tag = tag_of j in
  match tag with
  | "register" ->
    let* name = field "name" J.to_str j in
    let* pid = field "pid" J.to_int j in
    let* fingerprint = field "fingerprint" J.to_str j in
    Ok (Register { name; pid; fingerprint })
  | "heartbeat" -> Ok Heartbeat
  | "metrics_query" -> Ok Metrics_query
  | "result" ->
    let* job = field "job" J.to_int j in
    let* lease = field "lease" J.to_int j in
    let* task = field "task" J.to_int j in
    let* key = field "key" J.to_str j in
    let* checksum = field "checksum" J.to_str j in
    let* run = field "run" Option.some j in
    Ok (Result { job; lease; task; key; checksum; run })
  | "task_error" ->
    let* job = field "job" J.to_int j in
    let* lease = field "lease" J.to_int j in
    let* task = field "task" J.to_int j in
    let* error = field "error" J.to_str j in
    Ok (Task_error { job; lease; task; error })
  | "lease_done" ->
    let* job = field "job" J.to_int j in
    let* lease = field "lease" J.to_int j in
    Ok (Lease_done { job; lease })
  | other -> Error (Printf.sprintf "cluster: unknown worker message %S" other)

let to_worker_to_json = function
  | Welcome { worker } ->
    J.Obj [ ("type", J.Str "welcome"); ("worker", J.Int worker) ]
  | Reject { reason } ->
    J.Obj [ ("type", J.Str "reject"); ("reason", J.Str reason) ]
  | Lease { job; lease; deadline_s; tasks; trace } ->
    J.Obj
      ([
         ("type", J.Str "lease");
         ("job", J.Int job);
         ("lease", J.Int lease);
         ("deadline_s", J.Float deadline_s);
         ( "tasks",
           J.List
             (List.map
                (fun (index, task) ->
                  J.Obj [ ("index", J.Int index); ("task", Task.to_json task) ])
                tasks) );
       ]
      @
      match trace with
      | None -> []
      | Some ctx -> [ ("trace", Obs.Span.context_to_json ctx) ])
  | Metrics { snapshot } ->
    J.Obj [ ("type", J.Str "metrics"); ("metrics", snapshot) ]
  | Quit -> J.Obj [ ("type", J.Str "quit") ]

let to_worker_of_json j =
  let* tag = tag_of j in
  match tag with
  | "welcome" ->
    let* worker = field "worker" J.to_int j in
    Ok (Welcome { worker })
  | "reject" ->
    let* reason = field "reason" J.to_str j in
    Ok (Reject { reason })
  | "lease" ->
    let* job = field "job" J.to_int j in
    let* lease = field "lease" J.to_int j in
    let* deadline_s = field "deadline_s" J.to_float j in
    let* items = field "tasks" J.to_list j in
    let* tasks =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* index = field "index" J.to_int item in
          let* task =
            match J.member "task" item with
            | None -> Error "cluster: lease entry missing \"task\" field"
            | Some tj -> Task.of_json tj
          in
          Ok ((index, task) :: acc))
        (Ok []) items
    in
    let trace =
      Option.bind (J.member "trace" j) Obs.Span.context_of_json
    in
    Ok (Lease { job; lease; deadline_s; tasks = List.rev tasks; trace })
  | "metrics" ->
    let* snapshot = field "metrics" Option.some j in
    Ok (Metrics { snapshot })
  | "quit" -> Ok Quit
  | other ->
    Error (Printf.sprintf "cluster: unknown coordinator message %S" other)

(* ---- admin client ----------------------------------------------------- *)

let query_metrics address =
  match
    let fd = Net.Addr.connect address in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          Net.Codec.write fd Net.Codec.Binary
            (J.to_string (to_coordinator_to_json Metrics_query))
        with
        | Error e -> Error ("cluster metrics: " ^ Net.Codec.error_to_string e)
        | Ok () -> (
          let reader = Net.Codec.reader ~max_frame fd in
          match Net.Codec.read reader with
          | Error e -> Error ("cluster metrics: " ^ Net.Codec.error_to_string e)
          | Ok (_mode, line) -> (
            match Result.bind (J.of_string line) to_worker_of_json with
            | Ok (Metrics { snapshot }) -> Ok snapshot
            | Ok _ -> Error "cluster metrics: unexpected reply"
            | Error e -> Error ("cluster metrics: " ^ e))))
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
    Error ("cluster metrics: " ^ Unix.error_message e)
