(** Cluster worker — see worker.mli for the contract. *)

module J = Obs.Json

type config = {
  connect : Net.Addr.t;
  name : string;
  store : Store.t option;
  chaos : Chaos.t;
  reconnect : Prelude.Backoff.policy;
  heartbeat_s : float;
  wire : Net.Codec.mode;
}

let config ~connect ~name =
  {
    connect;
    name;
    store = None;
    chaos = Chaos.none;
    reconnect = Prelude.Backoff.default;
    heartbeat_s = 0.5;
    wire = Net.Codec.Binary;
  }

type outcome = Drained | Killed | Lost

let outcome_to_string = function
  | Drained -> "drained"
  | Killed -> "killed"
  | Lost -> "lost"

let m_tasks = Obs.Metrics.counter "cluster.worker.tasks"
let m_leases = Obs.Metrics.counter "cluster.worker.leases"
let m_heartbeats = Obs.Metrics.counter "cluster.worker.heartbeats"
let m_task_errors = Obs.Metrics.counter "cluster.worker.task_errors"
let g_busy = Obs.Metrics.gauge "cluster.worker.busy"
let h_task_seconds = Obs.Metrics.hist "cluster.task.seconds"

exception Killed_mid_lease
exception Send_failed of string

let write_frame ~wire fd line =
  match Net.Codec.write fd wire line with
  | Ok () -> ()
  | Error e -> raise (Send_failed (Net.Codec.error_to_string e))

(* The heartbeat thread and the lease loop share the socket's write
   side; chaos delay happens outside the lock so a delayed result never
   blocks a heartbeat.  Chaos garbles the *payload* before framing —
   the frame stays well-formed, so corruption tests the checksum and
   parse paths rather than the codec. *)
let send ~chaos ~wire ~wmutex fd msg =
  let line = J.to_string (Wire.to_coordinator_to_json msg) in
  match Chaos.transform chaos line with
  | `Drop -> ()
  | `Send (line, delay_s) ->
    if delay_s > 0.0 then Thread.delay delay_s;
    Mutex.lock wmutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wmutex)
      (fun () -> write_frame ~wire fd line)

(* Registration bypasses chaos: a worker that cannot even join tests
   nothing. *)
let send_raw ~wire ~wmutex fd msg =
  Mutex.lock wmutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock wmutex)
    (fun () ->
      write_frame ~wire fd (J.to_string (Wire.to_coordinator_to_json msg)))

let run_task cfg digests (task : Task.t) =
  match Workloads.Mibench.by_name task.Task.program with
  | exception Invalid_argument e -> Error e
  | spec -> (
    let program = Workloads.Mibench.program_of spec in
    let program_digest =
      match Hashtbl.find_opt digests task.Task.program with
      | Some d -> d
      | None ->
        let d = Store.program_digest program in
        Hashtbl.add digests task.Task.program d;
        d
    in
    match Store.profile ?store:cfg.store ~setting:task.Task.setting program with
    | run ->
      let run_json = Sim.Xtrem.export run in
      let checksum = Prelude.Fnv.tagged_string (J.to_string run_json) in
      Ok (Task.key ~program_digest task, run_json, checksum)
    | exception e -> Error (Printexc.to_string e))

let process_lease cfg ~chaos ~wmutex ~stop ~digests ?remote_parent fd ~job
    ~lease tasks =
  let wire = cfg.wire in
  Obs.Metrics.add m_leases 1;
  Obs.Metrics.set g_busy 1.0;
  (* The lease span is the worker's root of this work unit: its
     [remote_parent] is the coordinator's evaluate span, so stitched
     traces hang every task under the coordinating process.  The span
     runs in the session thread — the only one opening spans in this
     process — so [Store.profile]'s compile/sim spans nest beneath it
     naturally. *)
  Obs.Span.with_ ?remote_parent "cluster.lease"
    ~attrs:
      [ ("job", J.Int job); ("lease", J.Int lease);
        ("tasks", J.Int (List.length tasks)) ]
    (fun () ->
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.set g_busy 0.0)
        (fun () ->
          List.iter
            (fun (index, task) ->
              if stop () then raise Exit;
              if Chaos.should_kill chaos then raise Killed_mid_lease;
              let t0 = Unix.gettimeofday () in
              (match run_task cfg digests task with
              | Ok (key, run, checksum) ->
                send ~chaos ~wire ~wmutex fd
                  (Wire.Result { job; lease; task = index; key; checksum; run })
              | Error error ->
                Obs.Metrics.add m_task_errors 1;
                send ~chaos ~wire ~wmutex fd
                  (Wire.Task_error { job; lease; task = index; error }));
              Obs.Metrics.observe h_task_seconds
                (Unix.gettimeofday () -. t0);
              Obs.Metrics.add m_tasks 1)
            tasks;
          send ~chaos ~wire ~wmutex fd (Wire.Lease_done { job; lease })))

(* One connected session: register, heartbeat, serve leases.  Returns
   how it ended; [registered] lets the caller reset its reconnect
   budget once the coordinator accepted us. *)
let session cfg ~stop ~chaos ~registered fd =
  let wire = cfg.wire in
  let reader = Net.Codec.reader ~max_frame:Wire.max_frame fd in
  let wmutex = Mutex.create () in
  let digests = Hashtbl.create 16 in
  match
    send_raw ~wire ~wmutex fd
      (Wire.Register
         {
           name = cfg.name;
           pid = Unix.getpid ();
           fingerprint = Passes.Driver.fingerprint;
         })
  with
  | exception Send_failed _ -> `Eof
  | () -> (
    (* Registration handshake, bounded so a wedged coordinator cannot
       hold an unregistered worker forever. *)
    let rec handshake budget =
      if budget <= 0.0 then `Eof
      else
        match Net.Codec.poll reader ~timeout:0.25 with
        | Ok None -> if stop () then `Stop else handshake (budget -. 0.25)
        | Error _ -> `Eof
        | Ok (Some (_mode, line)) -> (
          match
            Result.bind (J.of_string line) Wire.to_worker_of_json
          with
          | Ok (Wire.Welcome _) -> `Welcome
          | Ok (Wire.Reject { reason }) -> `Rejected reason
          | Ok _ | Error _ -> handshake budget)
    in
    match handshake 30.0 with
    | (`Eof | `Stop | `Rejected _) as r -> r
    | `Welcome ->
      registered := true;
      let hb_stop = Atomic.make false in
      let hb =
        Thread.create
          (fun () ->
            while not (Atomic.get hb_stop) do
              Thread.delay cfg.heartbeat_s;
              if not (Atomic.get hb_stop) then (
                try
                  send ~chaos ~wire ~wmutex fd Wire.Heartbeat;
                  Obs.Metrics.add m_heartbeats 1
                with _ -> Atomic.set hb_stop true)
            done)
          ()
      in
      let finish r =
        Atomic.set hb_stop true;
        Thread.join hb;
        r
      in
      let rec loop () =
        if stop () then `Stop
        else
          match Net.Codec.poll reader ~timeout:0.25 with
          | Ok None -> loop ()
          | Error _ -> `Eof
          | Ok (Some (_mode, line)) -> (
            match Result.bind (J.of_string line) Wire.to_worker_of_json with
            | Error e ->
              Obs.Span.log ~level:Obs.Trace.Debug
                (Printf.sprintf "worker %s: bad frame: %s" cfg.name e);
              loop ()
            | Ok Wire.Quit -> `Quit
            | Ok (Wire.Welcome _ | Wire.Reject _ | Wire.Metrics _) -> loop ()
            | Ok (Wire.Lease { job; lease; deadline_s = _; tasks; trace }) -> (
              match
                process_lease cfg ~chaos ~wmutex ~stop ~digests
                  ?remote_parent:trace fd ~job ~lease tasks
              with
              | () -> loop ()
              | exception Exit -> `Stop
              | exception Send_failed _ -> `Eof
              | exception Unix.Unix_error _ -> `Eof))
      in
      (match loop () with
      | r -> finish r
      | exception Killed_mid_lease -> finish `Killed))

let run ?(stop = fun () -> false) cfg =
  Prelude.Backoff.validate cfg.reconnect;
  (* Timing-only jitter source for the reconnect backoff — outside the
     determinism contract, like the serve client's. *)
  let rng =
    Prelude.Rng.create
      ((Unix.getpid () * 1_000_003)
       lxor (int_of_float (Unix.gettimeofday () *. 1e6) land max_int))
  in
  let chaos = Chaos.instance cfg.chaos ~salt:cfg.name in
  let attempt = ref 0 in
  let outcome = ref None in
  let give_up_or_backoff () =
    if !attempt > cfg.reconnect.Prelude.Backoff.max_retries then
      outcome := Some Lost
    else begin
      Thread.delay (Prelude.Backoff.delay cfg.reconnect ~rng ~attempt:!attempt);
      incr attempt
    end
  in
  while !outcome = None do
    if stop () then outcome := Some Drained
    else
      match Net.Addr.connect cfg.connect with
      | exception Unix.Unix_error _ -> give_up_or_backoff ()
      | fd -> (
        let registered = ref false in
        let r =
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> session cfg ~stop ~chaos ~registered fd)
        in
        if !registered then attempt := 0;
        match r with
        | `Quit | `Stop -> outcome := Some Drained
        | `Killed -> outcome := Some Killed
        | `Rejected reason ->
          Obs.Span.log
            (Printf.sprintf "worker %s: rejected by coordinator: %s" cfg.name
               reason);
          outcome := Some Lost
        | `Eof -> give_up_or_backoff ())
  done;
  Option.get !outcome
