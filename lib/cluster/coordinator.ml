(** Cluster coordinator — see coordinator.mli for the scheduling
    contract.

    I/O model: every worker connection is a non-blocking fd on one
    shared {!Net.Loop} (no thread per connection).  Frames arrive on
    the loop thread, which runs the protocol handlers below; sends are
    posted to the loop and buffered per connection ({!Net.Conn}), so a
    slow worker socket never stalls scheduling, expiry or another
    worker's results.  The scheduler itself ({!evaluate}) still runs in
    the calling thread — it owns the task state under [t.mutex] and
    only *posts* lease messages to the loop. *)

module J = Obs.Json

type config = {
  address : Net.Addr.t;
  lease_size : int;
  lease_timeout_s : float;
  heartbeat_timeout_s : float;
  retry : Prelude.Backoff.policy;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  register_timeout_s : float;
}

let config ?(address = Net.Addr.Tcp ("127.0.0.1", 0)) () =
  {
    address;
    lease_size = 8;
    lease_timeout_s = 30.0;
    heartbeat_timeout_s = 5.0;
    retry = Prelude.Backoff.default;
    breaker_threshold = 5;
    breaker_cooldown_s = 2.0;
    register_timeout_s = 30.0;
  }

let validate_config c =
  if c.lease_size <= 0 then invalid_arg "cluster: lease_size must be > 0";
  if c.lease_timeout_s <= 0.0 then
    invalid_arg "cluster: lease_timeout_s must be > 0";
  if c.heartbeat_timeout_s <= 0.0 then
    invalid_arg "cluster: heartbeat_timeout_s must be > 0";
  if c.breaker_threshold <= 0 then
    invalid_arg "cluster: breaker_threshold must be > 0";
  Prelude.Backoff.validate c.retry

let m_leases = Obs.Metrics.counter "cluster.leases"
let m_reassigned = Obs.Metrics.counter "cluster.reassigned"
let m_retries = Obs.Metrics.counter "cluster.retries"
let m_results = Obs.Metrics.counter "cluster.results"
let m_duplicates = Obs.Metrics.counter "cluster.duplicates"
let m_heartbeats = Obs.Metrics.counter "cluster.heartbeats"
let m_protocol_errors = Obs.Metrics.counter "cluster.protocol_errors"
let m_store_hits = Obs.Metrics.counter "cluster.store_hits"
let m_tasks = Obs.Metrics.counter "cluster.tasks"
let m_registered = Obs.Metrics.counter "cluster.workers.registered"
let m_lost = Obs.Metrics.counter "cluster.workers.lost"
let m_breaker = Obs.Metrics.counter "cluster.breaker.open"
let g_workers = Obs.Metrics.gauge "cluster.workers"
let g_busy = Obs.Metrics.gauge "cluster.workers.busy"
let g_pending = Obs.Metrics.gauge "cluster.pending"
let h_lease = Obs.Metrics.hist "cluster.lease.seconds"

type wstate = {
  w_id : int;
  w_name : string;
  w_pid : int;
  w_send : Wire.to_worker -> unit;
      (** Fire-and-forget: posts the frame to the loop, which buffers
          it on the connection.  Send failures surface as the
          connection closing, never as a return value. *)
  w_close : unit -> unit;  (** Posts a connection close to the loop. *)
  mutable w_last_seen : float;
  mutable w_lease : int option;
  mutable w_failures : int;  (** Consecutive failed leases. *)
  mutable w_broken_until : float;  (** Circuit breaker cooldown end. *)
  mutable w_alive : bool;
}

type lease = {
  l_id : int;
  l_job : int;
  l_worker : int;
  l_started : float;
  l_deadline : float;
  l_tasks : int list;  (** Task indices into the job's arrays. *)
}

type job = {
  j_id : int;
  j_tasks : Task.t array;
  j_keys : string array;
  j_results : Sim.Xtrem.run option array;
  mutable j_done : int;
  j_attempts : int array;
  j_not_before : float array;  (** Reassignment backoff per task. *)
  j_leased : bool array;
  mutable j_fatal : string option;
  j_on_result : (task:Task.t -> key:string -> run:Sim.Xtrem.run -> unit) option;
      (** Streaming hook: called once per freshly installed result. *)
}

(* Per-connection state, touched only on the loop thread. *)
type cmode = Pending | Registered of wstate

type cstate = {
  c_conn : Net.Conn.t;
  mutable c_mode : cmode;
  mutable c_reg_timer : Net.Loop.timer option;
}

type t = {
  cfg : config;
  store : Store.t option;
  listener : cstate Net.Listener.t;
  mutex : Mutex.t;  (** Guards every mutable field below and [rng]. *)
  mutable workers : wstate list;
  leases : (int, lease) Hashtbl.t;
  mutable job : job option;
  mutable next_id : int;
  mutable closed : bool;
  rng : Prelude.Rng.t;  (** Reassignment jitter — timing-only. *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let alive_workers_locked t = List.filter (fun w -> w.w_alive) t.workers

let refresh_gauges_locked t =
  let alive = alive_workers_locked t in
  Obs.Metrics.set g_workers (float_of_int (List.length alive));
  Obs.Metrics.set g_busy
    (float_of_int (List.length (List.filter (fun w -> w.w_lease <> None) alive)))

let send_to_worker _t w msg = w.w_send msg

(* ---- task requeueing, lease settlement, worker death ------------------ *)
(* All _locked functions run under [t.mutex]. *)

let requeue_task_locked t j idx ~now ~why =
  if j.j_results.(idx) = None then begin
    j.j_attempts.(idx) <- j.j_attempts.(idx) + 1;
    if j.j_attempts.(idx) > t.cfg.retry.Prelude.Backoff.max_retries then begin
      if j.j_fatal = None then
        j.j_fatal <-
          Some
            (Printf.sprintf "task %d (%s) failed after %d attempts: %s" idx
               j.j_tasks.(idx).Task.program j.j_attempts.(idx) why)
    end
    else begin
      Obs.Metrics.add m_retries 1;
      j.j_not_before.(idx) <-
        now
        +. Prelude.Backoff.delay t.cfg.retry ~rng:t.rng
             ~attempt:(j.j_attempts.(idx) - 1)
    end
  end

(* Return a finished/abandoned lease's tasks to the pending set.  Tasks
   that produced a result already are simply un-leased; missing ones
   are requeued with their retry budget charged. *)
let settle_lease_locked t l w ~now ~why =
  Hashtbl.remove t.leases l.l_id;
  if w.w_lease = Some l.l_id then w.w_lease <- None;
  Obs.Metrics.observe h_lease (now -. l.l_started);
  match t.job with
  | Some j when j.j_id = l.l_job ->
    let missing = List.filter (fun idx -> j.j_results.(idx) = None) l.l_tasks in
    List.iter (fun idx -> j.j_leased.(idx) <- false) l.l_tasks;
    List.iter (fun idx -> requeue_task_locked t j idx ~now ~why) missing;
    if missing = [] then w.w_failures <- 0
    else begin
      Obs.Metrics.add m_reassigned (List.length missing);
      Obs.Span.event "cluster.reassign"
        [
          ("worker", J.Int w.w_id);
          ("lease", J.Int l.l_id);
          ("tasks", J.Int (List.length missing));
          ("why", J.Str why);
        ];
      w.w_failures <- w.w_failures + 1;
      if w.w_failures >= t.cfg.breaker_threshold then begin
        w.w_broken_until <- now +. t.cfg.breaker_cooldown_s;
        w.w_failures <- 0;
        Obs.Metrics.add m_breaker 1;
        Obs.Span.event "cluster.breaker.open"
          [ ("worker", J.Int w.w_id); ("cooldown_s", J.Float t.cfg.breaker_cooldown_s) ]
      end
    end
  | _ -> ()

let mark_dead_locked t w ~now ~expected ~why =
  if w.w_alive then begin
    w.w_alive <- false;
    (match w.w_lease with
    | Some l_id -> (
      match Hashtbl.find_opt t.leases l_id with
      | Some l -> settle_lease_locked t l w ~now ~why
      | None -> w.w_lease <- None)
    | None -> ());
    if not expected then Obs.Metrics.add m_lost 1;
    Obs.Span.event "cluster.worker.leave"
      [ ("worker", J.Int w.w_id); ("name", J.Str w.w_name); ("why", J.Str why) ];
    refresh_gauges_locked t;
    (* A death noticed away from the connection (heartbeat expiry, a
       failing lease path) must also drop the socket; no-op when the
       close is what got us here. *)
    w.w_close ()
  end

(* ---- per-connection protocol handling (loop thread) ------------------- *)

let handle_result t w ~job ~task ~key ~checksum ~run =
  (* Verify outside the state lock: checksum binds content end-to-end
     (the worker hashed its own serialisation; canonical JSON printing
     makes re-serialising the parsed value reproduce those bytes), and
     import rejects anything structurally off.  A bad result is never
     installed — the task stays pending and lease settlement or expiry
     requeues it. *)
  if Prelude.Fnv.tagged_string (J.to_string run) <> checksum then
    Obs.Metrics.add m_protocol_errors 1
  else
    match Sim.Xtrem.import run with
    | Error _ -> Obs.Metrics.add m_protocol_errors 1
    | Ok r -> (
      let verdict =
        locked t (fun () ->
            match t.job with
            | Some j
              when j.j_id = job && task >= 0 && task < Array.length j.j_tasks
              ->
              if j.j_keys.(task) <> key then `Key_mismatch
              else if j.j_results.(task) <> None then `Duplicate
              else begin
                j.j_results.(task) <- Some r;
                j.j_done <- j.j_done + 1;
                w.w_last_seen <- Unix.gettimeofday ();
                `Installed (j.j_on_result, j.j_tasks.(task))
              end
            | _ -> `Stale)
      in
      match verdict with
      | `Installed (hook, tk) -> (
        Obs.Metrics.add m_results 1;
        (* The streaming hook runs outside the state lock, on the loop
           thread; a raising hook is the caller's bug and must not take
           the connection (and its lease) down with it. *)
        (match hook with
        | None -> ()
        | Some f -> (
          try f ~task:tk ~key ~run:r
          with e ->
            Obs.Span.log
              (Printf.sprintf "cluster: on_result hook raised: %s"
                 (Printexc.to_string e))));
        match t.store with
        | None -> ()
        | Some s -> (
          try Store.put_run s ~key r
          with e ->
            Obs.Span.log
              (Printf.sprintf "cluster: store write failed for %s: %s" key
                 (Printexc.to_string e))))
      | `Duplicate | `Stale -> Obs.Metrics.add m_duplicates 1
      | `Key_mismatch -> Obs.Metrics.add m_protocol_errors 1)

let handle_message t w line =
  match Result.bind (J.of_string line) Wire.to_coordinator_of_json with
  | Error e ->
    Obs.Metrics.add m_protocol_errors 1;
    Obs.Span.log ~level:Obs.Trace.Debug
      (Printf.sprintf "cluster: bad frame from worker %d: %s" w.w_id e)
  | Ok Wire.Heartbeat ->
    Obs.Metrics.add m_heartbeats 1;
    locked t (fun () -> w.w_last_seen <- Unix.gettimeofday ())
  | Ok Wire.Metrics_query ->
    (* Registered workers have no business polling metrics; the admin
       path is a bare pre-registration connection. *)
    Obs.Metrics.add m_protocol_errors 1
  | Ok (Wire.Register _) -> Obs.Metrics.add m_protocol_errors 1
  | Ok (Wire.Result { job; lease = _; task; key; checksum; run }) ->
    handle_result t w ~job ~task ~key ~checksum ~run
  | Ok (Wire.Task_error { job; lease = _; task; error }) ->
    locked t (fun () ->
        w.w_last_seen <- Unix.gettimeofday ();
        match t.job with
        | Some j when j.j_id = job && task >= 0 && task < Array.length j.j_tasks
          ->
          j.j_leased.(task) <- false;
          requeue_task_locked t j task ~now:(Unix.gettimeofday ()) ~why:error
        | _ -> ())
  | Ok (Wire.Lease_done { job; lease }) ->
    locked t (fun () ->
        w.w_last_seen <- Unix.gettimeofday ();
        match Hashtbl.find_opt t.leases lease with
        | Some l when l.l_worker = w.w_id && l.l_job = job ->
          settle_lease_locked t l w ~now:(Unix.gettimeofday ())
            ~why:"result dropped in transit"
        | _ -> ())

(* How long a drain leaves connections open — long enough for workers
   to see [quit] and close cleanly before they are cut off. *)
let drain_grace_s = 2.0

(* Bounded patience for the first frame to be a registration. *)
let register_patience_s = 10.0

let register_worker t cs ~name ~pid =
  let conn = cs.c_conn and loop = Net.Listener.loop t.listener in
  let w =
    locked t (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        let w =
          {
            w_id = id;
            w_name = name;
            w_pid = pid;
            w_send =
              (fun msg ->
                Net.Loop.post loop (fun () ->
                    Net.Conn.send conn
                      (J.to_string (Wire.to_worker_to_json msg))));
            w_close =
              (fun () -> Net.Loop.post loop (fun () -> Net.Conn.close conn));
            w_last_seen = Unix.gettimeofday ();
            w_lease = None;
            w_failures = 0;
            w_broken_until = 0.0;
            w_alive = true;
          }
        in
        t.workers <- w :: t.workers;
        refresh_gauges_locked t;
        w)
  in
  Obs.Metrics.add m_registered 1;
  Obs.Span.event "cluster.worker.join"
    [ ("worker", J.Int w.w_id); ("name", J.Str name); ("pid", J.Int pid) ];
  (match cs.c_reg_timer with
  | Some tm ->
    Net.Loop.cancel tm;
    cs.c_reg_timer <- None
  | None -> ());
  cs.c_mode <- Registered w;
  w.w_send (Wire.Welcome { worker = w.w_id })

let on_conn_frame t cs line =
  let conn = cs.c_conn in
  match cs.c_mode with
  | Registered w -> handle_message t w line
  | Pending -> (
    match Result.bind (J.of_string line) Wire.to_coordinator_of_json with
    | Ok (Wire.Register { name; pid = _; fingerprint })
      when fingerprint <> Passes.Driver.fingerprint ->
      Obs.Span.log
        (Printf.sprintf "cluster: rejecting worker %S: fingerprint mismatch"
           name);
      Net.Conn.send conn
        (J.to_string
           (Wire.to_worker_to_json
              (Wire.Reject { reason = "pipeline fingerprint mismatch" })));
      Net.Conn.close_after_flush conn
    | Ok (Wire.Register { name; pid; fingerprint = _ }) ->
      if Net.Listener.draining t.listener then Net.Conn.close conn
      else register_worker t cs ~name ~pid
    | Ok Wire.Metrics_query ->
      (* Admin poll: answer with the live snapshot and keep listening —
         the poller closes its end when satisfied, without ever
         registering as a worker. *)
      Net.Conn.send conn
        (J.to_string
           (Wire.to_worker_to_json
              (Wire.Metrics { snapshot = Obs.Metrics.snapshot () })))
    | Ok _ | Error _ -> Obs.Metrics.add m_protocol_errors 1)

let on_conn_closed t cs reason =
  (match cs.c_reg_timer with
  | Some tm ->
    Net.Loop.cancel tm;
    cs.c_reg_timer <- None
  | None -> ());
  match cs.c_mode with
  | Pending -> ()
  | Registered w ->
    let expected = Net.Listener.stopping t.listener || reason = Net.Conn.Eof in
    locked t (fun () ->
        mark_dead_locked t w
          ~now:(Unix.gettimeofday ())
          ~expected
          ~why:
            (match reason with
            | Net.Conn.Eof -> "connection closed"
            | r -> Net.Conn.close_reason_to_string r))

let attach t conn =
  let cs = { c_conn = conn; c_mode = Pending; c_reg_timer = None } in
  cs.c_reg_timer <-
    Some
      (Net.Loop.after (Net.Listener.loop t.listener) register_patience_s
         (fun () ->
           (* Still unregistered: an admin poller that is done, or junk. *)
           match cs.c_mode with
           | Pending -> Net.Conn.close conn
           | Registered _ -> ()));
  cs

(* The coordinator's part of a drain: tell every live worker to quit,
   close pending connections, and give the rest [drain_grace_s] to hang
   up on their own before they are cut off. *)
let on_drain t () =
  let ws = locked t (fun () -> t.workers) in
  List.iter (fun w -> if w.w_alive then w.w_send Wire.Quit) ws;
  List.iter
    (fun cs ->
      match cs.c_mode with
      | Pending -> Net.Conn.close_after_flush cs.c_conn
      | Registered _ -> ())
    (Net.Listener.connections t.listener);
  ignore
    (Net.Loop.after (Net.Listener.loop t.listener) drain_grace_s (fun () ->
         List.iter
           (fun cs -> Net.Conn.close cs.c_conn)
           (Net.Listener.connections t.listener)))

(* ---- lifecycle -------------------------------------------------------- *)

let create ?store cfg =
  validate_config cfg;
  let t =
    {
      cfg;
      store;
      listener = Net.Listener.listen cfg.address;
      mutex = Mutex.create ();
      workers = [];
      leases = Hashtbl.create 16;
      job = None;
      next_id = 1;
      closed = false;
      rng =
        Prelude.Rng.create
          ((Unix.getpid () * 69_069)
           lxor (int_of_float (Unix.gettimeofday () *. 1e6) land max_int));
    }
  in
  Net.Listener.start t.listener ~max_frame:Wire.max_frame ~attach:(attach t)
    ~on_frame:(on_conn_frame t) ~on_closed:(on_conn_closed t)
    ~on_drain:(on_drain t) ();
  t

let address t = Net.Listener.address t.listener

let workers t = locked t (fun () -> List.length (alive_workers_locked t))

(* Async-signal-safe: one store, one wakeup-pipe write. *)
let stop t = Net.Listener.stop t.listener

let shutdown t =
  stop t;
  if not t.closed then begin
    t.closed <- true;
    Net.Listener.wait t.listener;
    locked t (fun () -> refresh_gauges_locked t)
  end

(* ---- the scheduler ---------------------------------------------------- *)

(* Hand out leases to idle, live, unbroken workers.  Assignment is
   computed under the lock but the messages are posted to the loop
   outside it, so a slow socket never stalls expiry or result
   handling. *)
let assign_leases_locked t j ~now =
  let idle =
    List.filter
      (fun w -> w.w_alive && w.w_lease = None && now >= w.w_broken_until)
      (List.sort (fun a b -> compare a.w_id b.w_id) t.workers)
  in
  let n = Array.length j.j_tasks in
  let cursor = ref 0 in
  let next_batch () =
    let batch = ref [] in
    let count = ref 0 in
    while !count < t.cfg.lease_size && !cursor < n do
      let idx = !cursor in
      if
        j.j_results.(idx) = None
        && (not j.j_leased.(idx))
        && j.j_not_before.(idx) <= now
      then begin
        batch := idx :: !batch;
        incr count
      end;
      incr cursor
    done;
    List.rev !batch
  in
  List.filter_map
    (fun w ->
      match next_batch () with
      | [] -> None
      | idxs ->
        let l_id = t.next_id in
        t.next_id <- l_id + 1;
        let l =
          {
            l_id;
            l_job = j.j_id;
            l_worker = w.w_id;
            l_started = now;
            l_deadline = now +. t.cfg.lease_timeout_s;
            l_tasks = idxs;
          }
        in
        Hashtbl.add t.leases l_id l;
        w.w_lease <- Some l_id;
        List.iter (fun idx -> j.j_leased.(idx) <- true) idxs;
        Obs.Metrics.add m_leases 1;
        let msg =
          Wire.Lease
            {
              job = j.j_id;
              lease = l_id;
              deadline_s = t.cfg.lease_timeout_s;
              tasks = List.map (fun idx -> (idx, j.j_tasks.(idx))) idxs;
              (* Assignment runs in [evaluate]'s thread, inside the
                 cluster.evaluate span — its address lets the worker
                 record the lease as a remote child. *)
              trace = Obs.Span.current_context ();
            }
        in
        Some (w, l, msg))
    idle

let expire_locked t j ~now =
  let expired =
    Hashtbl.fold
      (fun _ l acc -> if now > l.l_deadline then l :: acc else acc)
      t.leases []
  in
  List.iter
    (fun l ->
      match List.find_opt (fun w -> w.w_id = l.l_worker) t.workers with
      | Some w -> settle_lease_locked t l w ~now ~why:"lease expired"
      | None -> Hashtbl.remove t.leases l.l_id)
    expired;
  (* Workers silent past the heartbeat timeout are dead: the peer may
     never write that socket again. *)
  List.iter
    (fun w ->
      if w.w_alive && now -. w.w_last_seen > t.cfg.heartbeat_timeout_s then
        mark_dead_locked t w ~now ~expected:false ~why:"heartbeat timeout")
    t.workers;
  ignore j

let evaluate ?tick ?on_result t groups =
  Obs.Span.with_ "cluster.evaluate" @@ fun () ->
  (* Enumerate the grid and dedupe by store key: semantic duplicates
     (same program digest + canonical setting) collapse to one task. *)
  let digests = Hashtbl.create 16 in
  let digest_of spec =
    let name = spec.Workloads.Spec.name in
    match Hashtbl.find_opt digests name with
    | Some d -> d
    | None ->
      let d = Store.program_digest (Workloads.Mibench.program_of spec) in
      Hashtbl.add digests name d;
      d
  in
  let index_by_key = Hashtbl.create 64 in
  let rev_tasks = ref [] in
  let n_uniq = ref 0 in
  let mapping =
    Array.map
      (fun (spec, settings) ->
        let program_digest = digest_of spec in
        Array.map
          (fun setting ->
            let task = { Task.program = spec.Workloads.Spec.name; setting } in
            let key = Task.key ~program_digest task in
            match Hashtbl.find_opt index_by_key key with
            | Some i -> i
            | None ->
              let i = !n_uniq in
              incr n_uniq;
              Hashtbl.add index_by_key key i;
              rev_tasks := (task, key) :: !rev_tasks;
              i)
          settings)
      groups
  in
  let uniq = Array.of_list (List.rev !rev_tasks) in
  let n = Array.length uniq in
  let tasks = Array.map fst uniq in
  let keys = Array.map snd uniq in
  let results = Array.make n None in
  let done_count = ref 0 in
  (* Store pre-check: warmed tasks never ship. *)
  (match t.store with
  | None -> ()
  | Some s ->
    Array.iteri
      (fun i key ->
        match Store.find_run s ~key with
        | Some r ->
          results.(i) <- Some r;
          incr done_count;
          Obs.Metrics.add m_store_hits 1;
          (match on_result with
          | None -> ()
          | Some f -> f ~task:tasks.(i) ~key ~run:r)
        | None -> ())
      keys);
  Obs.Metrics.add m_tasks n;
  let total = n in
  let report_tick =
    match tick with
    | None -> fun _ -> ()
    | Some f -> fun d -> f ~done_:d ~total
  in
  report_tick !done_count;
  if !done_count < n then begin
    let j =
      locked t (fun () ->
          if t.job <> None then
            invalid_arg "cluster: one evaluate at a time per coordinator";
          let j_id = t.next_id in
          t.next_id <- j_id + 1;
          let j =
            {
              j_id;
              j_tasks = tasks;
              j_keys = keys;
              j_results = results;
              j_done = !done_count;
              j_attempts = Array.make n 0;
              j_not_before = Array.make n 0.0;
              j_leased = Array.make n false;
              j_fatal = None;
              j_on_result = on_result;
            }
          in
          t.job <- Some j;
          j)
    in
    let started = Unix.gettimeofday () in
    let last_alive = ref started in
    let finally_clear () = locked t (fun () -> t.job <- None) in
    Fun.protect ~finally:finally_clear @@ fun () ->
    let fatal = ref None in
    while !fatal = None && locked t (fun () -> j.j_done < n) do
      let sends =
        locked t (fun () ->
            let now = Unix.gettimeofday () in
            expire_locked t j ~now;
            if alive_workers_locked t <> [] then last_alive := now;
            (match j.j_fatal with
            | Some why -> fatal := Some why
            | None ->
              if Net.Listener.stopping t.listener then
                fatal := Some "coordinator stopping (drain)"
              else if now -. !last_alive > t.cfg.register_timeout_s then
                fatal :=
                  Some
                    (Printf.sprintf "no live workers for %.0f s"
                       t.cfg.register_timeout_s));
            Obs.Metrics.set g_pending (float_of_int (n - j.j_done));
            refresh_gauges_locked t;
            if !fatal = None then assign_leases_locked t j ~now else [])
      in
      List.iter (fun (w, _l, msg) -> send_to_worker t w msg) sends;
      report_tick (locked t (fun () -> j.j_done));
      if !fatal = None then Thread.delay 0.05
    done;
    (* Cancel whatever is still outstanding so late results from this
       job are recognised as stale. *)
    locked t (fun () ->
        Hashtbl.iter
          (fun _ l ->
            if l.l_job = j.j_id then
              match List.find_opt (fun w -> w.w_id = l.l_worker) t.workers with
              | Some w -> if w.w_lease = Some l.l_id then w.w_lease <- None
              | None -> ())
          t.leases;
        Hashtbl.reset t.leases;
        Obs.Metrics.set g_pending 0.0);
    match !fatal with
    | Some why -> failwith ("cluster evaluate failed: " ^ why)
    | None -> ()
  end;
  report_tick n;
  (* Merge in request order, each run stamped with its requested
     setting (key-equal settings share one canonical evaluation). *)
  Array.mapi
    (fun gi (_, settings) ->
      Array.mapi
        (fun si setting ->
          match results.(mapping.(gi).(si)) with
          | Some r -> { r with Sim.Xtrem.setting }
          | None -> assert false)
        settings)
    groups
