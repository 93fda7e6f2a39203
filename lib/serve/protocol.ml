(** Newline-delimited JSON wire protocol shared by server and client.

    One request per line, one response line per request, over a TCP or
    Unix-domain stream socket:

    {v
    -> {"op":"predict","counters":[...11 floats...],"uarch":{...},"id":1}
    <- {"ok":true,"id":1,"passes":[...],"flags":"...","neighbours":[...],
        "latency_ms":0.8,"cached":false}
    -> {"op":"health"}
    <- {"ok":true,"uptime_s":12.3,"requests":42,"cache":{...},...}
    v}

    Errors come back as [{"ok":false,"code":400|429|...,"error":"..."}]
    with the request's ["id"] echoed when one was given — 429 is the
    load-shedding reply.  The admin ops ([shutdown], [sleep]) are only
    honoured when the server was started with [--admin]. *)

module J = Obs.Json

(* ---- microarchitecture encoding --------------------------------------- *)

let uarch_to_json (u : Uarch.Config.t) =
  J.Obj
    [
      ("il1_size", J.Int u.Uarch.Config.il1_size);
      ("il1_assoc", J.Int u.Uarch.Config.il1_assoc);
      ("il1_block", J.Int u.Uarch.Config.il1_block);
      ("dl1_size", J.Int u.Uarch.Config.dl1_size);
      ("dl1_assoc", J.Int u.Uarch.Config.dl1_assoc);
      ("dl1_block", J.Int u.Uarch.Config.dl1_block);
      ("btb_entries", J.Int u.Uarch.Config.btb_entries);
      ("btb_assoc", J.Int u.Uarch.Config.btb_assoc);
      ("freq_mhz", J.Int u.Uarch.Config.freq_mhz);
      ("issue_width", J.Int u.Uarch.Config.issue_width);
    ]

let uarch_of_json j =
  let get name =
    match Option.bind (J.member name j) J.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "uarch: missing or malformed %S" name)
  in
  let ( let* ) = Result.bind in
  let* il1_size = get "il1_size" in
  let* il1_assoc = get "il1_assoc" in
  let* il1_block = get "il1_block" in
  let* dl1_size = get "dl1_size" in
  let* dl1_assoc = get "dl1_assoc" in
  let* dl1_block = get "dl1_block" in
  let* btb_entries = get "btb_entries" in
  let* btb_assoc = get "btb_assoc" in
  let* freq_mhz = get "freq_mhz" in
  let* issue_width = get "issue_width" in
  let u =
    {
      Uarch.Config.il1_size;
      il1_assoc;
      il1_block;
      dl1_size;
      dl1_assoc;
      dl1_block;
      btb_entries;
      btb_assoc;
      freq_mhz;
      issue_width;
    }
  in
  match Uarch.Config.validate u with
  | () -> Ok u
  | exception Invalid_argument e -> Error ("uarch: " ^ e)

(* ---- requests --------------------------------------------------------- *)

type request =
  | Predict of {
      counters : Sim.Counters.t;
      uarch : Uarch.Config.t;
      objective : Objective.Spec.t option;
          (** The client's required objective; the server answers only
              when it matches the loaded model's spec (else a typed
              400).  [None] accepts whatever the model serves. *)
    }
  | Predict_batch of {
      queries : (Sim.Counters.t * Uarch.Config.t) array;
      objective : Objective.Spec.t option;
    }
      (** One admission slot, one pool task, one response line for the
          whole vector. *)
  | Health
  | Metrics
  | Reload
      (** Admin op: re-resolve the model source (the registry channels
          the server was started against) and hot-swap the active
          model(s) atomically, without dropping in-flight requests. *)
  | Shutdown
  | Sleep of float  (** Admin/test op: hold a worker for the duration. *)

(** Largest accepted [predict_batch] vector — keeps a single request
    line (and the server's single-task pool occupancy) bounded. *)
let max_batch = 512

let counters_to_json c =
  J.List
    (Array.to_list
       (Array.map (fun f -> J.Float f) (Sim.Counters.to_array c)))

let query_to_json (counters, uarch) =
  J.Obj
    [ ("counters", counters_to_json counters); ("uarch", uarch_to_json uarch) ]

let op_name = function
  | Predict _ -> "predict"
  | Predict_batch _ -> "predict_batch"
  | Health -> "health"
  | Metrics -> "metrics"
  | Reload -> "reload"
  | Shutdown -> "shutdown"
  | Sleep _ -> "sleep"

let request_to_json ?id ?trace req =
  let id = match id with None -> [] | Some i -> [ ("id", J.Int i) ] in
  let trace =
    match trace with
    | None -> []
    | Some ctx -> [ ("trace", Obs.Span.context_to_json ctx) ]
  in
  let objective_field = function
    | None -> []
    | Some o -> [ ("objective", J.Str (Objective.Spec.to_string o)) ]
  in
  let fields =
    match req with
    | Predict { counters; uarch; objective } ->
      ("counters", counters_to_json counters)
      :: ("uarch", uarch_to_json uarch)
      :: objective_field objective
    | Predict_batch { queries; objective } ->
      ("queries", J.List (Array.to_list (Array.map query_to_json queries)))
      :: objective_field objective
    | Health | Metrics | Reload | Shutdown -> []
    | Sleep s -> [ ("seconds", J.Float s) ]
  in
  J.Obj ((("op", J.Str (op_name req)) :: fields) @ trace @ id)

(** The request's ["id"] field, echoed into every response so clients
    can pipeline. *)
let request_id j =
  match J.member "id" j with Some (J.Int _ as i) -> Some i | _ -> None

(** The request's optional ["trace"] context: the client's span
    address, recorded on the server's [serve.request] event so the
    stitcher can hang server-side work under the caller's span. *)
let request_trace j =
  Option.bind (J.member "trace" j) Obs.Span.context_of_json

(* Parse one (counters, uarch) query object — shared by "predict" and
   each element of "predict_batch".  Rejects non-finite counter values
   up front (JSON can smuggle an infinity in as e.g. 1e999): a NaN or
   infinite feature vector would otherwise poison the prediction cache
   and produce a garbage neighbour search, so it is a typed 400 here
   rather than undefined behaviour downstream. *)
let query_of_json j =
  match Option.bind (J.member "counters" j) J.to_list with
  | None -> Error "missing or malformed \"counters\" field"
  | Some items -> (
    let floats = List.filter_map J.to_float items in
    if List.length floats <> List.length items then
      Error "non-numeric counter value"
    else if List.exists (fun f -> not (Float.is_finite f)) floats then
      Error "non-finite counter value"
    else
      match Sim.Counters.of_array (Array.of_list floats) with
      | exception Invalid_argument e -> Error e
      | counters -> (
        match J.member "uarch" j with
        | None -> Error "missing \"uarch\" field"
        | Some u -> (
          match uarch_of_json u with
          | Error e -> Error e
          | Ok uarch -> Ok (counters, uarch))))

(* The optional per-request ["objective"] member, shared by "predict"
   and "predict_batch".  An unparseable spec is a typed 400 — like a
   non-finite counter, it must never reach the model silently. *)
let objective_of_json j =
  match J.member "objective" j with
  | None -> Ok None
  | Some (J.Str s) -> (
    match Objective.Spec.of_string s with
    | Ok o -> Ok (Some o)
    | Error e -> Error e)
  | Some _ -> Error "malformed \"objective\" field (expected a string)"

let request_of_json j =
  let op =
    match Option.bind (J.member "op" j) J.to_str with
    | Some op -> op
    | None -> "predict"
  in
  match op with
  | "health" -> Ok Health
  | "metrics" -> Ok Metrics
  | "reload" -> Ok Reload
  | "shutdown" -> Ok Shutdown
  | "sleep" ->
    let seconds =
      match Option.bind (J.member "seconds" j) J.to_float with
      | Some s when s >= 0.0 && s <= 60.0 -> s
      | _ -> 0.1
    in
    Ok (Sleep seconds)
  | "predict" -> (
    match objective_of_json j with
    | Error e -> Error ("predict: " ^ e)
    | Ok objective -> (
      match query_of_json j with
      | Error e -> Error ("predict: " ^ e)
      | Ok (counters, uarch) -> Ok (Predict { counters; uarch; objective })))
  | "predict_batch" -> (
    match objective_of_json j with
    | Error e -> Error ("predict_batch: " ^ e)
    | Ok objective -> (
      match Option.bind (J.member "queries" j) J.to_list with
      | None -> Error "predict_batch: missing or malformed \"queries\" field"
      | Some [] -> Error "predict_batch: empty \"queries\" list"
      | Some items when List.length items > max_batch ->
        Error
          (Printf.sprintf "predict_batch: %d queries, but a batch holds at \
                           most %d"
             (List.length items) max_batch)
      | Some items ->
        (* All-or-nothing: one malformed query fails the whole batch with
           its position, so a client never has to match partial results
           back to inputs. *)
        let rec parse i acc = function
          | [] ->
            Ok
              (Predict_batch
                 { queries = Array.of_list (List.rev acc); objective })
          | q :: rest -> (
            match query_of_json q with
            | Error e ->
              Error (Printf.sprintf "predict_batch: query %d: %s" i e)
            | Ok pair -> parse (i + 1) (pair :: acc) rest)
        in
        parse 0 [] items))
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* ---- responses -------------------------------------------------------- *)

type neighbour = { index : int; distance : float; weight : float }
(** [weight] is the normalised softmax share (sums to 1 across the
    response's neighbours) — a display form of
    {!Ml_model.Predict.neighbour}'s unnormalised weight. *)

type prediction = {
  setting : Passes.Flags.setting;
  flags : string;  (** Human-readable [Passes.Flags.to_string] form. *)
  neighbours : neighbour array;
  latency_ms : float;
  cached : bool;
  arm : string option;
      (** A/B arm that answered ("stable" or "candidate"); [None] from
          servers without A/B routing (and pre-registry responses). *)
  model : string option;
      (** Version id of the artifact that answered — the payload digest
          ({!Serve.Artifact.version_id}). *)
}

let with_id id fields =
  match id with None -> fields | Some i -> ("id", i) :: fields

let prediction_fields p =
  [
    ( "passes",
      J.List (Array.to_list (Array.map (fun v -> J.Int v) p.setting)) );
    ("flags", J.Str p.flags);
    ( "neighbours",
      J.List
        (Array.to_list
           (Array.map
              (fun nb ->
                J.Obj
                  [
                    ("index", J.Int nb.index);
                    ("distance", J.Float nb.distance);
                    ("weight", J.Float nb.weight);
                  ])
              p.neighbours)) );
    ("latency_ms", J.Float p.latency_ms);
    ("cached", J.Bool p.cached);
  ]
  @ (match p.arm with None -> [] | Some a -> [ ("arm", J.Str a) ])
  @ match p.model with None -> [] | Some m -> [ ("model", J.Str m) ]

let prediction_to_json ?id p =
  J.Obj (with_id id (("ok", J.Bool true) :: prediction_fields p))

(** Batch response: one ["results"] element per query, in query order,
    each shaped like a single prediction response (minus [ok]/[id]). *)
let batch_to_json ?id ps =
  J.Obj
    (with_id id
       [
         ("ok", J.Bool true);
         ( "results",
           J.List
             (Array.to_list
                (Array.map (fun p -> J.Obj (prediction_fields p)) ps)) );
       ])

let prediction_of_json j =
  let ( let* ) = Result.bind in
  let* setting =
    match Option.bind (J.member "passes" j) J.to_list with
    | None -> Error "response: missing \"passes\" field"
    | Some items ->
      let ints = List.filter_map J.to_int items in
      if List.length ints <> List.length items then
        Error "response: non-integer pass value"
      else Ok (Array.of_list ints)
  in
  let* () =
    match Passes.Flags.validate setting with
    | () -> Ok ()
    | exception Invalid_argument e -> Error ("response: " ^ e)
  in
  let flags =
    Option.value ~default:"" (Option.bind (J.member "flags" j) J.to_str)
  in
  let neighbours =
    match Option.bind (J.member "neighbours" j) J.to_list with
    | None -> [||]
    | Some items ->
      Array.of_list
        (List.filter_map
           (fun nb ->
             match
               ( Option.bind (J.member "index" nb) J.to_int,
                 Option.bind (J.member "distance" nb) J.to_float,
                 Option.bind (J.member "weight" nb) J.to_float )
             with
             | Some index, Some distance, Some weight ->
               Some { index; distance; weight }
             | _ -> None)
           items)
  in
  let latency_ms =
    Option.value ~default:0.0
      (Option.bind (J.member "latency_ms" j) J.to_float)
  in
  let cached =
    match J.member "cached" j with Some (J.Bool b) -> b | _ -> false
  in
  let arm = Option.bind (J.member "arm" j) J.to_str in
  let model = Option.bind (J.member "model" j) J.to_str in
  Ok { setting; flags; neighbours; latency_ms; cached; arm; model }

let batch_of_json j =
  match Option.bind (J.member "results" j) J.to_list with
  | None -> Error "response: missing \"results\" field"
  | Some items ->
    let rec parse i acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | r :: rest -> (
        match prediction_of_json r with
        | Error e -> Error (Printf.sprintf "result %d: %s" i e)
        | Ok p -> parse (i + 1) (p :: acc) rest)
    in
    parse 0 [] items

let error_to_json ?id ~code msg =
  J.Obj
    (with_id id
       [ ("ok", J.Bool false); ("code", J.Int code); ("error", J.Str msg) ])

(** [Ok j] when the response line reports success, [Error (code, msg)]
    otherwise. *)
let check_response j =
  match J.member "ok" j with
  | Some (J.Bool true) -> Ok j
  | _ ->
    let code =
      Option.value ~default:500 (Option.bind (J.member "code" j) J.to_int)
    in
    let msg =
      Option.value ~default:"unknown error"
        (Option.bind (J.member "error" j) J.to_str)
    in
    Error (code, msg)
