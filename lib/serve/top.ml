(** Dashboard sampling and rendering — see top.mli for the contract. *)

module J = Obs.Json

type sample = { at : float; health : J.t; metrics : J.t }

let fetch client =
  match Client.health client with
  | Error _ as e -> e
  | Ok health -> (
    match Client.metrics client with
    | Error _ as e -> e
    | Ok metrics -> Ok { at = Unix.gettimeofday (); health; metrics })

(* ---- accessors -------------------------------------------------------- *)

(* The one walk from a health or metrics document down a path of member
   names; every read of either document goes through it. *)
let walk path j =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path

let geti path j = Option.value ~default:0 (Option.bind (walk path j) J.to_int)

let getf path j =
  Option.value ~default:0.0 (Option.bind (walk path j) J.to_float)

let request_hist s =
  Option.value ~default:(J.Obj [ ("count", J.Int 0) ])
    (walk [ "histograms"; "serve.request.seconds" ] s.metrics)

(* ---- rendering -------------------------------------------------------- *)

let ms = 1e3

let fmt_quantiles label h =
  match Obs.Metrics.quantile_of_json h 0.5 with
  | None -> Printf.sprintf "latency  %-12s (no samples)" label
  | Some p50 ->
    let q p = Option.value ~default:nan (Obs.Metrics.quantile_of_json h p) in
    let hmax =
      Option.value ~default:nan (Option.bind (walk [ "max" ] h) J.to_float)
    in
    Printf.sprintf
      "latency  %-12s p50 %8.3fms  p90 %8.3fms  p99 %8.3fms  max %8.3fms"
      label (p50 *. ms) (q 0.9 *. ms) (q 0.99 *. ms) (hmax *. ms)

let render ?prev (cur : sample) ~address =
  let b = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let hi path = geti path cur.health in
  let requests = hi [ "requests" ]
  and shed = hi [ "shed" ]
  and errors = hi [ "errors" ] in
  let hits = hi [ "cache"; "hits" ] and misses = hi [ "cache"; "misses" ] in
  out "portopt top — %s    uptime %.1fs    stopping %s\n" address
    (getf [ "uptime_s" ] cur.health)
    (match walk [ "stopping" ] cur.health with
    | Some (J.Bool true) -> "true"
    | _ -> "false");
  (match prev with
  | Some p when cur.at > p.at ->
    let dt = cur.at -. p.at in
    let rate cur_v prev_v = float_of_int (cur_v - prev_v) /. dt in
    let preq = geti [ "requests" ] p.health in
    out
      "window   %6.1fs    %8.1f req/s    %8.1f shed/s    %8.1f err/s\n" dt
      (rate requests preq)
      (rate shed (geti [ "shed" ] p.health))
      (rate errors (geti [ "errors" ] p.health))
  | _ -> out "window   (first sample)\n");
  let lookups = hits + misses in
  out
    "totals   requests %d    shed %d (%.2f%%)    errors %d    predictions %d\n"
    requests shed
    (if requests = 0 then 0.0
     else 100.0 *. float_of_int shed /. float_of_int requests)
    errors
    (geti [ "counters"; "serve.predictions" ] cur.metrics);
  out "cache    hit rate %s    size %d/%d\n"
    (if lookups = 0 then "-"
     else Printf.sprintf "%.1f%%" (100.0 *. float_of_int hits /. float_of_int lookups))
    (hi [ "cache"; "size" ])
    (hi [ "cache"; "capacity" ]);
  out "queue    depth %d    inflight %d    jobs %d    limit %d\n"
    (hi [ "queue_depth" ]) (hi [ "inflight" ]) (hi [ "jobs" ])
    (hi [ "queue_limit" ]);
  (* The I/O plane: one readiness loop per server — registered fds,
     completion lag, and wire volume (rates over the window when one
     exists, lifetime totals on the first sample). *)
  let ci name = geti [ "counters"; name ] cur.metrics in
  let bytes_in = ci "net.loop.bytes_in" and bytes_out = ci "net.loop.bytes_out" in
  (match prev with
  | Some p when cur.at > p.at ->
    let dt = cur.at -. p.at in
    let rate name v =
      float_of_int (v - geti [ "counters"; name ] p.metrics) /. dt
    in
    out
      "net      conns %d    loop fds %.0f    lag %6.2fms    wakeups %8.1f/s  \
       \  in %8.0f B/s    out %8.0f B/s\n"
      (hi [ "connections" ])
      (getf [ "gauges"; "net.loop.fds" ] cur.metrics)
      (getf [ "gauges"; "net.loop.lag_seconds" ] cur.metrics *. ms)
      (rate "net.loop.wakeups" (ci "net.loop.wakeups"))
      (rate "net.loop.bytes_in" bytes_in)
      (rate "net.loop.bytes_out" bytes_out)
  | _ ->
    out
      "net      conns %d    loop fds %.0f    lag %6.2fms    wakeups %d    in \
       %d B    out %d B\n"
      (hi [ "connections" ])
      (getf [ "gauges"; "net.loop.fds" ] cur.metrics)
      (getf [ "gauges"; "net.loop.lag_seconds" ] cur.metrics *. ms)
      (ci "net.loop.wakeups") bytes_in bytes_out);
  (* Multi-objective activity, when the process has any: front
     occupancy plus the insert/dominated/pruned tallies from
     {!Objective.Front}.  Quiet (cycles-only) servers skip the line. *)
  let o_ins = ci "objective.insertions"
  and o_dom = ci "objective.dominated"
  and o_pruned = ci "objective.pruned" in
  let o_front = getf [ "gauges"; "objective.front_size" ] cur.metrics in
  if o_ins + o_dom + o_pruned > 0 || o_front > 0.0 then
    out
      "objective front %.0f    insertions %d    dominated %d    pruned %d\n"
      o_front o_ins o_dom o_pruned;
  let h = request_hist cur in
  out "%s\n" (fmt_quantiles "(lifetime)" h);
  (match prev with
  | Some p -> (
    match Obs.Metrics.delta_hist_json ~prev:(request_hist p) h with
    | Some dh -> out "%s\n" (fmt_quantiles "(window)" dh)
    | None -> ())
  | None -> ());
  Buffer.contents b

(* ---- promotion gate --------------------------------------------------- *)

type arm = { version : string; requests : int; p99 : float option }

type promotion = {
  stable : arm;
  candidate : arm;
  verdict : (unit, string) result;
}

let promotion ~min_requests ~max_regression ~force s =
  let version path = Option.bind (walk path s.health) J.to_str in
  let arm version requests seconds =
    {
      version;
      requests = geti [ "counters"; requests ] s.metrics;
      p99 =
        Option.bind
          (walk [ "histograms"; seconds ] s.metrics)
          (fun h -> Obs.Metrics.quantile_of_json h 0.99);
    }
  in
  match
    (version [ "model"; "version" ], version [ "ab"; "candidate"; "version" ])
  with
  | None, _ -> Error "health report carries no model version"
  | Some _, None -> Error "server has no candidate arm (serve --registry --ab)"
  | Some stable, Some candidate ->
    let stable =
      arm stable "serve.ab.stable.requests" "serve.ab.stable.seconds"
    and candidate =
      arm candidate "serve.ab.candidate.requests" "serve.ab.candidate.seconds"
    in
    let verdict =
      if stable.version = candidate.version then
        Error "candidate is already the stable version"
      else if candidate.requests < min_requests && not force then
        Error
          (Printf.sprintf "candidate served %d requests, need %d (or --force)"
             candidate.requests min_requests)
      else
        match (stable.p99, candidate.p99) with
        | _, None when not force ->
          Error "candidate arm has no latency samples (or --force)"
        | Some s, Some c when c > s *. (1.0 +. max_regression) && not force
          ->
          Error
            (Printf.sprintf
               "candidate p99 regresses %.1f%% over stable (budget %.1f%%; \
                --force overrides)"
               ((c /. s -. 1.0) *. 100.)
               (max_regression *. 100.))
        | _ -> Ok ()
    in
    Ok { stable; candidate; verdict }
