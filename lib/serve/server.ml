(** Concurrent prediction server on the shared readiness loop.

    Architecture (one process, three kinds of execution context):

    - a single {b loop thread} ([Net.Loop]) owns the listening socket and
      every connection as non-blocking fds behind poll(2); connections are
      per-fd state machines ([Net.Conn]) with bounded buffers, so connection
      count is bounded by fds, not threads;
    - cheap ops ([health], [metrics], cache hits, admission sheds, protocol
      errors) are answered inline on the loop thread; prediction work is
      dispatched to the {b worker pool} ([Prelude.Pool] domains — real
      parallelism, since threads alone share one domain) with the connection
      paused, and the completion re-enters the loop through its wakeup pipe
      ([Net.Loop.post]) to send the response and resume reading;
    - admission control bounds the number of simultaneously admitted
      requests to [jobs + queue]; beyond that the server sheds load with an
      immediate 429-style JSON error instead of queueing unboundedly.

    Wire format: both newline-JSON and length-prefixed binary frames
    ([Net.Codec]), negotiated per connection from the first byte the client
    sends; the payload is the same JSON document either way.

    Repeated queries are answered from an LRU cache keyed on the model's
    version id plus the quantised raw feature vector (1e-6 grid — far below
    any physically meaningful counter difference), bypassing admission
    entirely so a saturated server still answers hot queries.

    {b Hot swap and A/B routing.}  The active model lives in a single
    [Atomic.t] routing record (stable arm, optional candidate arm, split
    fraction).  Every request reads the record exactly once and computes
    against that snapshot, so {!install} — triggered by the [reload] wire op
    or the registry-watch thread — swaps models between requests without
    dropping or tearing in-flight work: each response is bit-identical to
    one of the installed models, never a mixture.  With a candidate arm, a
    deterministic FNV hash of the query key routes a fixed fraction of
    queries to the candidate; responses carry their arm and version id, and
    [serve.ab.*] metrics count and time each arm so [portopt promote] can
    compare them.

    [stop] (async-signal-safe: one atomic store plus a wakeup-pipe write)
    initiates a graceful drain: the listener closes, idle connections close
    after their output flushes, in-flight requests run to completion and
    are answered, and the loop exits — latency bounded by outstanding work,
    not by a poll period.  [wait] (polling, so SIGINT/SIGTERM handlers
    installed by the CLI get a chance to run) returns once everything is
    down. *)

module J = Obs.Json

type source =
  | Unchanged
  | Swap of {
      stable : string * Artifact.t;
      candidate : (string * Artifact.t) option;
    }

type config = {
  address : Net.Addr.t;
  jobs : int;  (** Worker-pool size. *)
  queue : int;  (** Admitted requests beyond [jobs] before shedding. *)
  cache_capacity : int;  (** LRU entries; 0 disables the cache. *)
  admin : bool;  (** Honour [shutdown]/[sleep]/[reload] ops. *)
  split : float;
      (** Fraction of queries routed to the candidate arm when one is
          installed (clamped to [0, 1]). *)
  source : (unit -> (source, string) result) option;
      (** Model source behind the [reload] op and the watch thread —
          typically a closure over registry channels, built by the CLI
          so this library stays ignorant of [Registry]. *)
  watch : float option;
      (** Poll [source] every this many seconds and install changes
          automatically (the registry-watch mode). *)
}

let default_config address =
  {
    address;
    jobs = 2;
    queue = 64;
    cache_capacity = 512;
    admin = false;
    split = 0.0;
    source = None;
    watch = None;
  }

type cached = {
  c_setting : Passes.Flags.setting;
  c_flags : string;
  c_neighbours : Protocol.neighbour array;
}

(** One installed model: the artifact plus the content identity it was
    loaded under, so neither install nor the hot paths serialise. *)
type arm = {
  arm_label : string;  (** ["stable"] or ["candidate"]. *)
  arm_version : string;  (** The id {!Artifact.read} returned. *)
  arm_checksum : string;
  arm_artifact : Artifact.t;
}

(** The whole routing state as one immutable record behind one
    [Atomic.t]: a request reads it once, so a concurrent [install] can
    never be observed half-applied (no torn model reads). *)
type routing = {
  r_stable : arm;
  r_candidate : arm option;
  r_split : float;
}

type t = {
  config : config;
  routing : routing Atomic.t;
  pool : Prelude.Pool.t;
  listener : Net.Conn.t Net.Listener.t;
      (** A connection is busy exactly while it is paused: a request
          went to the pool and its completion has not landed. *)
  inflight : int Atomic.t;  (** Admitted predict/sleep requests. *)
  requests : int Atomic.t;  (** Per-server, for the health endpoint. *)
  shed : int Atomic.t;
  errors : int Atomic.t;
  reloads : int Atomic.t;  (** Effective model swaps since start. *)
  cache : (string, cached) Prelude.Lru.t option;
  cache_mutex : Mutex.t;
  started : float;
  mutable watch_thread : Thread.t option;
}

(* Who owns which number: the [health] op reports *this server
   instance* from the per-server atomics in [t]; the process-wide
   registry below feeds the [metrics] op, the Prometheus scrape and the
   trace tail, and is the sum over every server instance in the
   process (tests run several).  [bump] is the only place both are
   incremented, so the two surfaces cannot drift apart. *)
let m_requests = Obs.Metrics.counter "serve.requests"
let m_predictions = Obs.Metrics.counter "serve.predictions"
let m_shed = Obs.Metrics.counter "serve.shed"
let m_errors = Obs.Metrics.counter "serve.errors"
let m_cache_hits = Obs.Metrics.counter "serve.cache.hits"
let m_cache_misses = Obs.Metrics.counter "serve.cache.misses"
let m_connections = Obs.Metrics.counter "serve.connections"
let m_reloads = Obs.Metrics.counter "serve.reloads"
let g_queue_depth = Obs.Metrics.gauge "serve.queue_depth"
let g_heap_words = Obs.Metrics.gauge "serve.gc.heap_words"
let g_top_heap_words = Obs.Metrics.gauge "serve.gc.top_heap_words"
let h_request_seconds = Obs.Metrics.hist "serve.request.seconds"

(* Per-arm A/B instruments: queries answered and latency, by arm slot.
   [portopt promote] compares exactly these. *)
let m_ab_stable_requests = Obs.Metrics.counter "serve.ab.stable.requests"
let m_ab_candidate_requests = Obs.Metrics.counter "serve.ab.candidate.requests"
let h_ab_stable_seconds = Obs.Metrics.hist "serve.ab.stable.seconds"
let h_ab_candidate_seconds = Obs.Metrics.hist "serve.ab.candidate.seconds"

let arm_requests label =
  if label = "candidate" then m_ab_candidate_requests else m_ab_stable_requests

let arm_seconds label =
  if label = "candidate" then h_ab_candidate_seconds else h_ab_stable_seconds

let bump per_server process_wide =
  Atomic.incr per_server;
  Obs.Metrics.add process_wide 1

let address t = Net.Listener.address t.listener

(* ---- cache ------------------------------------------------------------ *)

(** Cache key: the raw feature vector on a 1e-6 grid.  Counter rates
    are O(1) and descriptors are log2-scaled (<= 17), so the grid is
    ~7 significant digits — collisions require inputs closer than any
    physically distinguishable pair of profiles.

    Two audited edge cases: [-0.0] quantises to the same key as [0.0]
    (both round to a zero whose [Int64] is [0L], so the same physical
    point never splits into two LRU entries), and non-finite or
    Int64-overflowing values — whose [Int64.of_float] is unspecified —
    key on their exact bit pattern instead, so a hostile vector cannot
    poison the cache with an unpredictable key.  (The protocol layer
    already rejects non-finite counters with a 400; this is the defence
    behind the defence.) *)
let quantise (features : float array) =
  let buf = Buffer.create 128 in
  Array.iter
    (fun f ->
      (let scaled = Float.round (f *. 1e6) in
       if Float.abs scaled < 9.2e18 then
         (* In Int64 range: the 1e-6 grid cell.  Float.round maps both
            0.0 and -0.0 (and their whole grid cell) to a zero whose
            Int64 is 0L, so signed zeros share one key. *)
         Buffer.add_string buf (Int64.to_string (Int64.of_float scaled))
       else begin
         (* NaN, infinities, or magnitudes beyond Int64 — conversion
            would be unspecified, so key on the exact bit pattern
            instead (deterministic, and still collision-free). *)
         Buffer.add_char buf '#';
         Buffer.add_string buf (Int64.to_string (Int64.bits_of_float f))
       end);
      Buffer.add_char buf ';')
    features;
  Buffer.contents buf

(* Cache entries are per model: the key is prefixed with the answering
   arm's version id, so a hot swap or an A/B pair can never serve a
   stale answer computed by a different model.  Old versions' entries
   simply age out of the LRU. *)
let cache_key arm features = arm.arm_version ^ "|" ^ quantise features

let cache_get t key =
  match t.cache with
  | None -> None
  | Some c ->
    Mutex.lock t.cache_mutex;
    let r = Prelude.Lru.get c key in
    Mutex.unlock t.cache_mutex;
    (match r with
    | Some _ -> Obs.Metrics.add m_cache_hits 1
    | None -> Obs.Metrics.add m_cache_misses 1);
    r

let cache_put t key v =
  match t.cache with
  | None -> ()
  | Some c ->
    Mutex.lock t.cache_mutex;
    Prelude.Lru.put c key v;
    Mutex.unlock t.cache_mutex

(* ---- routing ---------------------------------------------------------- *)

let make_arm label (version, artifact) =
  {
    arm_label = label;
    arm_version = version;
    arm_checksum = "fnv1a64:" ^ version;
    arm_artifact = artifact;
  }

(** A/B assignment: FNV-hash the model-independent query key (quantised
    counters + uarch key) into 10000 buckets; buckets below
    [split * 10000] go to the candidate.  Pure function of (query key,
    split), so the same query lands on the same arm across requests,
    connections and server restarts. *)
let ab_buckets = 10_000

let ab_bucket key =
  int_of_string ("0x" ^ String.sub (Prelude.Fnv.digest_string key) 0 7)
  mod ab_buckets

(* The route key is built only when a candidate could take the query. *)
let choose routing (counters, uarch) =
  match routing.r_candidate with
  | Some c
    when float_of_int
           (ab_bucket
              (quantise (Sim.Counters.to_array counters)
              ^ "@" ^ Uarch.Config.cache_key uarch))
         < routing.r_split *. float_of_int ab_buckets ->
    c
  | _ -> routing.r_stable

(** Atomically publish a new routing state.  In-flight requests keep
    computing against the snapshot they already took (the old artifacts
    stay alive until the last such request drops them); new requests
    see the new state.  Returns the new routing and whether anything
    actually changed (content identity, not physical equality). *)
let swap_routing t ~stable ~candidate =
  let prev = Atomic.get t.routing in
  let next =
    {
      r_stable = make_arm "stable" stable;
      r_candidate = Option.map (make_arm "candidate") candidate;
      r_split = t.config.split;
    }
  in
  Atomic.set t.routing next;
  let changed =
    next.r_stable.arm_version <> prev.r_stable.arm_version
    ||
    match (next.r_candidate, prev.r_candidate) with
    | None, None -> false
    | Some a, Some b -> a.arm_version <> b.arm_version
    | _ -> true
  in
  if changed then begin
    Atomic.incr t.reloads;
    Obs.Metrics.add m_reloads 1;
    Obs.Span.event ~parent:None "serve.reload"
      [
        ("stable", J.Str next.r_stable.arm_version);
        ( "candidate",
          match next.r_candidate with
          | None -> J.Null
          | Some c -> J.Str c.arm_version );
      ]
  end;
  (next, changed)

let install t ~stable ~candidate = ignore (swap_routing t ~stable ~candidate)

(* ---- admission control ------------------------------------------------ *)

let admit_capacity t = t.config.jobs + t.config.queue

let set_queue_gauge t n =
  Obs.Metrics.set g_queue_depth
    (float_of_int (max 0 (n - t.config.jobs)))

(** Lock-free admission: optimistically take a slot, hand it back when
    over capacity.  The transient overshoot is bounded by the number of
    racing threads and never admits work. *)
let try_admit t =
  let n = Atomic.fetch_and_add t.inflight 1 in
  if n >= admit_capacity t then begin
    ignore (Atomic.fetch_and_add t.inflight (-1));
    false
  end
  else begin
    set_queue_gauge t (n + 1);
    true
  end

let release t =
  let n = Atomic.fetch_and_add t.inflight (-1) in
  set_queue_gauge t (n - 1)

(* ---- request handling ------------------------------------------------- *)

(* The provenance subset of an artifact's meta: the store pointer and
   every *_digest field — what the health endpoint surfaces so smoke
   scripts and `portopt top` can assert which inputs trained the live
   model. *)
let provenance_of_meta meta =
  List.filter
    (fun (k, _) ->
      k = "store" || String.length k > 7
      && String.sub k (String.length k - 7) 7 = "_digest")
    meta

let arm_json a =
  J.Obj
    [
      ("version", J.Str a.arm_version);
      ("checksum", J.Str a.arm_checksum);
    ]

let health_fields t =
  let routing = Atomic.get t.routing in
  let stable = routing.r_stable in
  let cache_stats =
    match t.cache with
    | None -> J.Obj [ ("enabled", J.Bool false) ]
    | Some c ->
      J.Obj
        [
          ("enabled", J.Bool true);
          ("size", J.Int (Prelude.Lru.size c));
          ("capacity", J.Int (Prelude.Lru.capacity c));
          ("hits", J.Int (Prelude.Lru.hits c));
          ("misses", J.Int (Prelude.Lru.misses c));
        ]
  in
  [
    ("ok", J.Bool true);
    ("uptime_s", J.Float (Unix.gettimeofday () -. t.started));
    ("requests", J.Int (Atomic.get t.requests));
    ("shed", J.Int (Atomic.get t.shed));
    ("errors", J.Int (Atomic.get t.errors));
    ("inflight", J.Int (Atomic.get t.inflight));
    ("connections", J.Int (Net.Listener.live t.listener));
    ("queue_depth", J.Int (Prelude.Pool.pending t.pool));
    ("jobs", J.Int t.config.jobs);
    ("queue_limit", J.Int t.config.queue);
    ("stopping", J.Bool (Net.Listener.stopping t.listener));
    ("reloads", J.Int (Atomic.get t.reloads));
    ("cache", cache_stats);
    ( "model",
      J.Obj
        [
          ("version", J.Str stable.arm_version);
          ("checksum", J.Str stable.arm_checksum);
          ( "pairs",
            J.Int (Ml_model.Model.n_points stable.arm_artifact.Artifact.model)
          );
          ("k", J.Int (Ml_model.Model.k stable.arm_artifact.Artifact.model));
          ( "beta",
            J.Float (Ml_model.Model.beta stable.arm_artifact.Artifact.model)
          );
          ( "space",
            J.Str
              (Ml_model.Features.space_to_string
                 stable.arm_artifact.Artifact.space) );
          ( "provenance",
            J.Obj (provenance_of_meta stable.arm_artifact.Artifact.meta) );
        ] );
    ( "ab",
      match routing.r_candidate with
      | None -> J.Null
      | Some c ->
        J.Obj [ ("split", J.Float routing.r_split); ("candidate", arm_json c) ]
    );
    ("meta", J.Obj stable.arm_artifact.Artifact.meta);
  ]

(** Display neighbours: normalise the softmax weights into shares. *)
let wire_neighbours (ns : Ml_model.Predict.neighbour array) =
  let z =
    Array.fold_left (fun acc nb -> acc +. nb.Ml_model.Predict.weight) 0.0 ns
  in
  let z = if z > 0.0 then z else 1.0 in
  Array.map
    (fun (nb : Ml_model.Predict.neighbour) ->
      {
        Protocol.index = nb.Ml_model.Predict.index;
        distance = nb.Ml_model.Predict.distance;
        weight = nb.Ml_model.Predict.weight /. z;
      })
    ns

let cached_of_result (r : Ml_model.Predict.result) =
  {
    c_setting = r.Ml_model.Predict.setting;
    c_flags = Passes.Flags.to_string r.Ml_model.Predict.setting;
    c_neighbours = wire_neighbours r.Ml_model.Predict.neighbours;
  }

(* One answered query's bookkeeping: per-arm count and latency, plus
   the response-record tags that pin it to its arm and model version. *)
let wire_prediction arm c ~dur_s ~cached =
  Obs.Metrics.add (arm_requests arm.arm_label) 1;
  Obs.Metrics.observe (arm_seconds arm.arm_label) dur_s;
  {
    Protocol.setting = c.c_setting;
    flags = c.c_flags;
    neighbours = c.c_neighbours;
    latency_ms = dur_s *. 1e3;
    cached;
    arm = Some arm.arm_label;
    model = Some arm.arm_version;
  }

(* One [serve.ab] event per arm that answered at least one of the
   request's queries; none while no candidate is installed. *)
let ab_events routing arms =
  match routing.r_candidate with
  | None -> ()
  | Some c ->
    List.iter
      (fun arm ->
        let queries =
          Array.fold_left (fun n a -> if a == arm then n + 1 else n) 0 arms
        in
        if queries > 0 then
          Obs.Span.event ~parent:None "serve.ab"
            [
              ("arm", J.Str arm.arm_label);
              ("model", J.Str arm.arm_version);
              ("queries", J.Int queries);
            ])
      [ routing.r_stable; c ]

(** How a request is answered: [Now] on the loop thread (cheap,
    non-blocking), or [Pooled] — a closure shipped to a pool domain
    while the connection is paused; the completion re-enters the loop
    to send it.  Pooled closures own their admission slot and release
    it in a [Fun.protect]. *)
type outcome = Now of J.t | Pooled of (unit -> J.t)

let error ?id code msg = Now (Protocol.error_to_json ?id ~code msg)

(** Run [job] in the pool holding one admission slot, or shed the
    request with a 429 when every slot is taken. *)
let admitted t ~id job =
  if try_admit t then
    Pooled (fun () -> Fun.protect ~finally:(fun () -> release t) job)
  else begin
    bump t.shed m_shed;
    error ?id 429 "overloaded: admission queue full, retry later"
  end

(* A request may pin the objective it was trained against; the server
   answers only from a model trained for that spec.  [None] accepts any
   model (the pre-objective client behaviour). *)
let objective_mismatch ~objective arm =
  match objective with
  | None -> None
  | Some want ->
    let have = Artifact.objective arm.arm_artifact in
    if Objective.Spec.equal want have then None
    else
      Some
        (Printf.sprintf
           "objective mismatch: model trained for %s, request asks %s"
           (Objective.Spec.to_string have)
           (Objective.Spec.to_string want))

(** Answer a query vector; a [predict] is a vector of one, and only the
    reply's shape ([single]) differs.  Each query is routed to its arm
    from {e one} routing snapshot (so the request computes against at
    most the two installed models, however many swaps happen
    meanwhile), the cache is probed per query, and the misses are
    computed in {e one} admission slot and {e one} pool task.  A single
    mismatching arm rejects the whole request rather than answering a
    mixed vector.  Results come back in query order. *)
let predict_outcome t ~id ~t0 ~objective ~single queries =
  let routing = Atomic.get t.routing in
  let arms = Array.map (choose routing) queries in
  match Array.find_map (objective_mismatch ~objective) arms with
  | Some msg -> error ?id 400 msg
  | None ->
  let features =
    Array.mapi
      (fun i (counters, uarch) ->
        Ml_model.Features.raw arms.(i).arm_artifact.Artifact.space counters
          uarch)
      queries
  in
  let keys = Array.mapi (fun i f -> cache_key arms.(i) f) features in
  let hits = Array.map (cache_get t) keys in
  let cached = Array.map Option.is_some hits in
  let respond () =
    let dur_s = Unix.gettimeofday () -. t0 in
    let out =
      Array.mapi
        (fun i hit ->
          wire_prediction arms.(i) (Option.get hit) ~dur_s ~cached:cached.(i))
        hits
    in
    ab_events routing arms;
    if single then Protocol.prediction_to_json ?id out.(0)
    else Protocol.batch_to_json ?id out
  in
  if Array.for_all Fun.id cached then Now (respond ())
  else
    admitted t ~id (fun () ->
        let compute i was_cached =
          if not was_cached then begin
            let c =
              cached_of_result
                (Ml_model.Model.predict_full
                   arms.(i).arm_artifact.Artifact.model features.(i))
            in
            Obs.Metrics.add m_predictions 1;
            cache_put t keys.(i) c;
            hits.(i) <- Some c
          end
        in
        match Array.iteri compute cached with
        | () -> respond ()
        | exception e ->
          bump t.errors m_errors;
          Protocol.error_to_json ?id ~code:500
            ("prediction failed: " ^ Printexc.to_string e))

(* [stop] must stay async-signal-safe: the CLI's SIGINT/SIGTERM handlers
   call it directly.  One atomic store plus one wakeup-pipe write; the
   loop's on_wake hook notices and begins the drain. *)
let stop t = Net.Listener.stop t.listener

let with_id id fields =
  match id with Some i -> ("id", i) :: fields | None -> fields

(* Consult the model source and install what it resolves.  A source
   that raises fails like one that returns [Error]; either counts one
   error. *)
let resolve t source =
  match source () with
  | Ok Unchanged -> Ok (Atomic.get t.routing, false)
  | Ok (Swap { stable; candidate }) -> Ok (swap_routing t ~stable ~candidate)
  | Error e ->
    bump t.errors m_errors;
    Error e
  | exception e ->
    bump t.errors m_errors;
    Error (Printexc.to_string e)

let reload_fields routing ~changed =
  [
    ("ok", J.Bool true);
    ("changed", J.Bool changed);
    ("model", J.Str routing.r_stable.arm_version);
    ( "candidate",
      match routing.r_candidate with
      | None -> J.Null
      | Some c -> J.Str c.arm_version );
  ]

(** Answer one decoded request inline or as a pool job.  Everything
    here runs on the loop thread and must not block; the [reload]
    resolve is the one deliberate exception (admin-only, rare,
    file-system bound). *)
let answer t ~id ~t0 req =
  match req with
  | Protocol.Health -> Now (J.Obj (with_id id (health_fields t)))
  | Protocol.Metrics ->
    (* Read only when asked: the predict path never pays for it. *)
    let gc = Gc.quick_stat () in
    Obs.Metrics.set g_heap_words (float_of_int gc.Gc.heap_words);
    Obs.Metrics.set g_top_heap_words (float_of_int gc.Gc.top_heap_words);
    Now
      (J.Obj
         (with_id id
            [ ("ok", J.Bool true); ("metrics", Obs.Metrics.snapshot ()) ]))
  | (Protocol.Reload | Protocol.Shutdown | Protocol.Sleep _)
    when not t.config.admin ->
    error ?id 403
      (Protocol.op_name req
     ^ " is an admin op (start the server with --admin)")
  | Protocol.Reload -> (
    match t.config.source with
    | None ->
      error ?id 400
        "no model source: the server was started from a fixed artifact \
         (serve --registry enables reload)"
    | Some source -> (
      match resolve t source with
      | Ok (routing, changed) ->
        Now (J.Obj (with_id id (reload_fields routing ~changed)))
      | Error e -> error ?id 500 ("reload failed: " ^ e)))
  | Protocol.Shutdown ->
    stop t;
    Now (J.Obj (with_id id [ ("ok", J.Bool true); ("stopping", J.Bool true) ]))
  | Protocol.Sleep seconds ->
    admitted t ~id (fun () ->
        Thread.delay seconds;
        J.Obj (with_id id [ ("ok", J.Bool true); ("slept_s", J.Float seconds) ]))
  | Protocol.Predict { counters; uarch; objective } ->
    predict_outcome t ~id ~t0 ~objective ~single:true [| (counters, uarch) |]
  | Protocol.Predict_batch { queries; objective } ->
    predict_outcome t ~id ~t0 ~objective ~single:false queries

(** Decode one request line and answer it; also returns the op name and
    the client's span address for the [serve.request] event. *)
let classify t ~t0 line =
  match J.of_string line with
  | Error e ->
    (error 400 ("malformed request: " ^ e), "malformed", None)
  | Ok j -> (
    (* The client's span address, when it sent one and a sink is open —
       recorded on the serve.request event so the stitcher hangs this
       request under the caller's span. *)
    let remote =
      if Obs.Trace.active () then Protocol.request_trace j else None
    in
    let id = Protocol.request_id j in
    match Protocol.request_of_json j with
    | Error e -> (error ?id 400 e, "malformed", remote)
    | Ok req -> (answer t ~id ~t0 req, Protocol.op_name req, remote))

(* ---- connection plumbing ---------------------------------------------- *)

(* Send the response and record the request's full duration (admission
   wait and pool time included).  Loop thread only. *)
let finish _t conn ~t0 ~op ~remote response =
  Net.Conn.send conn (J.to_string response);
  let dur = Unix.gettimeofday () -. t0 in
  Obs.Metrics.observe h_request_seconds dur;
  (* Leaf event rather than a span pair: handlers share the loop thread,
     so the span stack's nesting would interleave across requests. *)
  Obs.Span.event ~parent:None ?remote_parent:remote "serve.request"
    [ ("op", J.Str op); ("dur_ms", J.Float (dur *. 1e3)) ]

(* One frame from a connection.  [Now] outcomes answer inline; [Pooled]
   outcomes pause the connection (one request in flight per connection,
   responses in request order), ship the closure to the pool and
   re-enter the loop with the completion. *)
let on_frame t conn payload =
  let line = String.trim payload in
  if line <> "" then begin
    let t0 = Unix.gettimeofday () in
    bump t.requests m_requests;
    let outcome, op, remote = classify t ~t0 line in
    match outcome with
    | Now response -> finish t conn ~t0 ~op ~remote response
    | Pooled job ->
      Net.Conn.pause conn;
      let complete response =
        Net.Loop.post (Net.Listener.loop t.listener) (fun () ->
            finish t conn ~t0 ~op ~remote response;
            if Net.Listener.draining t.listener then
              Net.Conn.close_after_flush conn
            else Net.Conn.resume conn)
      in
      (try
         Prelude.Pool.submit t.pool (fun () ->
             complete
               (try job ()
                with e ->
                  bump t.errors m_errors;
                  Protocol.error_to_json ~code:500
                    ("internal error: " ^ Printexc.to_string e)))
       with Prelude.Pool.Closed ->
         finish t conn ~t0 ~op ~remote
           (Protocol.error_to_json ~code:503 "server shutting down");
         Net.Conn.close_after_flush conn)
  end

(* Framing violations — oversized frame, bad binary length, mid-frame
   EOF — are protocol errors: the client gets a 400 (when it can still
   be written to) and the connection closes, leaving the rest of the
   loop untouched. *)
let on_error t conn e =
  bump t.errors m_errors;
  Net.Conn.send conn
    (J.to_string
       (Protocol.error_to_json ~code:400 (Net.Codec.error_to_string e)))

(* The server's part of a drain: idle connections close once their
   output flushes; busy (paused) ones are closed by their completion. *)
let on_drain t () =
  List.iter
    (fun conn ->
      if not (Net.Conn.paused conn) then Net.Conn.close_after_flush conn)
    (Net.Listener.connections t.listener)

(* The registry-watch mode: poll the model source on its interval (in
   small ticks so [stop] is noticed promptly) and install whatever it
   resolves.  A failing poll counts an error and emits a trace event
   but never kills serving — the last good model stays live.  This
   stays a thread of its own: registry resolution is file-system bound
   and must not stall the loop. *)
let watch_loop t source interval =
  let stopping () = Net.Listener.stopping t.listener in
  while not (stopping ()) do
    let deadline = Unix.gettimeofday () +. interval in
    while
      (not (stopping ())) && Unix.gettimeofday () < deadline
    do
      Thread.delay (Float.min 0.1 interval)
    done;
    if not (stopping ()) then
      match resolve t source with
      | Ok _ -> ()
      | Error e ->
        Obs.Span.event ~parent:None "serve.reload.error" [ ("error", J.Str e) ]
  done

(* ---- lifecycle -------------------------------------------------------- *)

let start ?candidate ~artifact config =
  let config = { config with split = Float.min 1.0 (Float.max 0.0 config.split) } in
  let listener = Net.Listener.listen config.address in
  let pool = Prelude.Pool.create ~jobs:(max 1 config.jobs) in
  let config = { config with jobs = Prelude.Pool.size pool } in
  let routing =
    {
      r_stable = make_arm "stable" artifact;
      r_candidate = Option.map (make_arm "candidate") candidate;
      r_split = config.split;
    }
  in
  let t =
    {
      config;
      routing = Atomic.make routing;
      pool;
      listener;
      inflight = Atomic.make 0;
      requests = Atomic.make 0;
      shed = Atomic.make 0;
      errors = Atomic.make 0;
      reloads = Atomic.make 0;
      cache =
        (if config.cache_capacity > 0 then
           Some (Prelude.Lru.create ~capacity:config.cache_capacity)
         else None);
      cache_mutex = Mutex.create ();
      started = Unix.gettimeofday ();
      watch_thread = None;
    }
  in
  Net.Listener.start listener
    ~attach:(fun conn ->
      Obs.Metrics.add m_connections 1;
      conn)
    ~on_frame:(on_frame t) ~on_error:(on_error t)
    ~on_closed:(fun _ _ -> ())
    ~on_drain:(on_drain t) ();
  (match (config.source, config.watch) with
  | Some source, Some interval when interval > 0.0 ->
    t.watch_thread <- Some (Thread.create (watch_loop t source) interval)
  | _ -> ());
  t

let wait t =
  Net.Listener.wait t.listener;
  Option.iter Thread.join t.watch_thread;
  t.watch_thread <- None;
  Prelude.Pool.shutdown t.pool
