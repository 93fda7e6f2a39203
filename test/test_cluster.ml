(* Tests for the cluster subsystem: wire/task codecs, seeded chaos,
   and the coordinator/worker fabric end-to-end — in-process workers
   on real sockets, compared bit-for-bit against local evaluation,
   including under chaos and with a worker killed mid-run. *)

module J = Obs.Json
module F = Passes.Flags
module X = Sim.Xtrem

let check = Alcotest.check

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "portopt_cluster_%d_%s" (Unix.getpid ()) name)

let tmp_dir name =
  let dir = tmp_path name in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

(* ---- task codec -------------------------------------------------------- *)

let test_task_roundtrip () =
  let rng = Prelude.Rng.create 11 in
  for i = 0 to 9 do
    let t =
      {
        Cluster.Task.program = Workloads.Mibench.names.(i mod 3);
        setting = F.random rng;
      }
    in
    match Cluster.Task.of_json (Cluster.Task.to_json t) with
    | Ok t' ->
      check Alcotest.string "program" t.Cluster.Task.program
        t'.Cluster.Task.program;
      check Alcotest.bool "setting" true
        (t.Cluster.Task.setting = t'.Cluster.Task.setting)
    | Error e -> Alcotest.failf "round-trip failed: %s" e
  done

let test_task_rejects_bad_json () =
  let bad =
    [
      J.Null;
      J.Obj [ ("program", J.Str "crc") ];
      J.Obj [ ("program", J.Int 3); ("setting", J.List []) ];
      J.Obj
        [
          ("program", J.Str "crc");
          (* Wrong arity: settings are fixed-width flag vectors. *)
          ("setting", J.List [ J.Int 1; J.Int 0 ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      match Cluster.Task.of_json j with
      | Ok _ -> Alcotest.failf "accepted %s" (J.to_string j)
      | Error _ -> ())
    bad

let test_task_key_is_store_key () =
  let spec = Workloads.Mibench.by_name "crc" in
  let program = Workloads.Mibench.program_of spec in
  let pd = Store.program_digest program in
  let t = { Cluster.Task.program = "crc"; setting = F.o3 } in
  check Alcotest.string "task key = store profile key"
    (Store.profile_key ~program_digest:pd ~setting:F.o3)
    (Cluster.Task.key ~program_digest:pd t)

(* ---- wire codec -------------------------------------------------------- *)

let coordinator_msgs rng =
  [
    Cluster.Wire.Register
      { name = "w-1"; pid = 4242; fingerprint = Passes.Driver.fingerprint };
    Cluster.Wire.Heartbeat;
    Cluster.Wire.Result
      {
        job = 3;
        lease = 17;
        task = 5;
        key = "deadbeef";
        checksum = "fnv1a:0123";
        run = J.Obj [ ("seconds", J.Float 1.5) ];
      };
    Cluster.Wire.Task_error
      { job = 3; lease = 17; task = 6; error = "unknown workload" };
    Cluster.Wire.Lease_done { job = 3; lease = 17 };
    Cluster.Wire.Metrics_query;
    Cluster.Wire.Register
      {
        name = String.make 64 'x';
        pid = 1;
        fingerprint = F.cache_key (F.random rng);
      };
  ]

let worker_msgs rng =
  [
    Cluster.Wire.Welcome { worker = 7 };
    Cluster.Wire.Reject { reason = "fingerprint mismatch" };
    Cluster.Wire.Lease
      {
        job = 1;
        lease = 2;
        deadline_s = 30.0;
        tasks =
          [
            (0, { Cluster.Task.program = "crc"; setting = F.o3 });
            (3, { Cluster.Task.program = "sha"; setting = F.random rng });
          ];
        trace =
          Some { Obs.Span.trace_id = "cafe01"; process = "portopt-1"; span = Some 42 };
      };
    Cluster.Wire.Lease
      { job = 0; lease = 0; deadline_s = 0.5; tasks = []; trace = None };
    Cluster.Wire.Metrics
      { snapshot = J.Obj [ ("counters", J.Obj [ ("x", J.Int 1) ]) ] };
    Cluster.Wire.Quit;
  ]

let reparse j =
  match J.of_string (J.to_string j) with
  | Ok v -> v
  | Error e -> Alcotest.failf "serialised json does not parse: %s" e

let test_wire_roundtrip () =
  let rng = Prelude.Rng.create 5 in
  List.iter
    (fun m ->
      match
        Cluster.Wire.to_coordinator_of_json
          (reparse (Cluster.Wire.to_coordinator_to_json m))
      with
      | Ok m' ->
        check Alcotest.bool "to_coordinator round-trip" true (m = m')
      | Error e -> Alcotest.failf "to_coordinator failed: %s" e)
    (coordinator_msgs rng);
  List.iter
    (fun m ->
      match
        Cluster.Wire.to_worker_of_json
          (reparse (Cluster.Wire.to_worker_to_json m))
      with
      | Ok m' -> check Alcotest.bool "to_worker round-trip" true (m = m')
      | Error e -> Alcotest.failf "to_worker failed: %s" e)
    (worker_msgs rng)

let test_wire_rejects_bad_json () =
  let bad =
    [
      J.Null;
      J.Obj [];
      J.Obj [ ("type", J.Str "no-such-message") ];
      J.Obj [ ("type", J.Int 3) ];
      (* Register with a missing field. *)
      J.Obj [ ("type", J.Str "register"); ("name", J.Str "w") ];
      (* Result with a mistyped task index. *)
      J.Obj
        [
          ("type", J.Str "result");
          ("job", J.Int 0);
          ("lease", J.Int 0);
          ("task", J.Str "zero");
          ("key", J.Str "k");
          ("checksum", J.Str "c");
          ("run", J.Obj []);
        ];
    ]
  in
  List.iter
    (fun j ->
      match Cluster.Wire.to_coordinator_of_json j with
      | Ok _ -> Alcotest.failf "to_coordinator accepted %s" (J.to_string j)
      | Error _ -> ())
    bad;
  List.iter
    (fun j ->
      match Cluster.Wire.to_worker_of_json j with
      | Ok _ -> Alcotest.failf "to_worker accepted %s" (J.to_string j)
      | Error _ -> ())
    [
      J.Null;
      J.Obj [ ("type", J.Str "lease"); ("job", J.Int 0) ];
      J.Obj
        [
          ("type", J.Str "lease");
          ("job", J.Int 0);
          ("lease", J.Int 0);
          ("deadline_s", J.Float 1.0);
          ("tasks", J.List [ J.Int 3 ]);
        ];
    ]

(* ---- chaos ------------------------------------------------------------- *)

let test_chaos_spec_roundtrip () =
  let specs =
    [
      Cluster.Chaos.none;
      { Cluster.Chaos.seed = 7; drop = 0.05; delay = 0.1;
        max_delay_s = 0.02; garble = 0.05; kill = 0.01 };
      { Cluster.Chaos.seed = 0; drop = 1.0; delay = 0.0; max_delay_s = 0.0;
        garble = 0.0; kill = 0.0 };
    ]
  in
  List.iter
    (fun c ->
      match Cluster.Chaos.of_string (Cluster.Chaos.to_string c) with
      | Ok c' -> check Alcotest.bool "spec round-trip" true (c = c')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    specs

let test_chaos_rejects_bad_specs () =
  List.iter
    (fun s ->
      match Cluster.Chaos.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "bogus=1"; "drop=nope"; "drop=1.5"; "kill=-0.1"; "seed=x"; "=" ]

let test_chaos_instance_deterministic () =
  (* Same seed and salt: identical decision streams.  Different salt:
     (almost surely) a different stream. *)
  let cfg =
    { Cluster.Chaos.seed = 99; drop = 0.3; delay = 0.3; max_delay_s = 0.01;
      garble = 0.3; kill = 0.1 }
  in
  let play salt =
    let i = Cluster.Chaos.instance cfg ~salt in
    List.init 200 (fun n ->
        let kill = Cluster.Chaos.should_kill i in
        let t =
          match Cluster.Chaos.transform i (Printf.sprintf "msg-%d" n) with
          | `Drop -> "drop"
          | `Send (line, delay) -> Printf.sprintf "%s@%f" line delay
        in
        (kill, t))
  in
  check Alcotest.bool "replay identical" true (play "alpha" = play "alpha");
  check Alcotest.bool "salt changes the stream" true
    (play "alpha" <> play "beta")

let test_chaos_garble_preserves_framing () =
  let cfg =
    { Cluster.Chaos.seed = 3; drop = 0.0; delay = 0.0; max_delay_s = 0.0;
      garble = 1.0; kill = 0.0 }
  in
  let i = Cluster.Chaos.instance cfg ~salt:"w" in
  for n = 0 to 99 do
    let line = Printf.sprintf "{\"type\":\"heartbeat\",\"n\":%d}" n in
    match Cluster.Chaos.transform i line with
    | `Drop -> Alcotest.fail "drop with drop=0"
    | `Send (out, _) ->
      check Alcotest.int "length preserved" (String.length line)
        (String.length out);
      if String.contains out '\n' then
        Alcotest.fail "garble injected a newline"
  done

(* ---- coordinator/worker end-to-end ------------------------------------- *)

(* A tiny grid: 2 programs x 3 settings, with one setting shared so the
   coordinator's dedupe-by-key path is exercised. *)
let grid rng =
  let s1 = F.random rng and s2 = F.random rng in
  [|
    (Workloads.Mibench.by_name "crc", [| F.o3; s1; s2 |]);
    (Workloads.Mibench.by_name "sha", [| s1; F.o3; F.random rng |]);
  |]

let ground_truth groups =
  Array.map
    (fun (spec, settings) ->
      let program = Workloads.Mibench.program_of spec in
      Array.map (fun setting -> X.profile_of ~setting program) settings)
    groups

let check_results_identical expected got =
  check Alcotest.int "group count" (Array.length expected) (Array.length got);
  Array.iteri
    (fun g exp ->
      check Alcotest.int "runs per group" (Array.length exp)
        (Array.length got.(g));
      Array.iteri
        (fun i r ->
          if r <> got.(g).(i) then
            Alcotest.failf "group %d run %d differs from local evaluation" g i)
        exp)
    expected

(* Run [f coord] with [n] in-process workers (each on its own thread,
   talking over the real socket) and a fast-recovery config.
   [stagger] delays worker [i] by [i * stagger] seconds, so a test can
   guarantee worker 0 registers first and wins the first lease. *)
let with_cluster ?store ?(chaos = Array.make 8 Cluster.Chaos.none)
    ?(stagger = 0.0) n f =
  let cfg =
    {
      (Cluster.Coordinator.config ()) with
      Cluster.Coordinator.lease_size = 2;
      lease_timeout_s = 2.0;
      heartbeat_timeout_s = 2.0;
      register_timeout_s = 10.0;
    }
  in
  let coord = Cluster.Coordinator.create ?store cfg in
  Fun.protect
    ~finally:(fun () -> Cluster.Coordinator.shutdown coord)
    (fun () ->
      let address = Cluster.Coordinator.address coord in
      let stop = Atomic.make false in
      let outcomes = Array.make n Cluster.Worker.Drained in
      let threads =
        Array.init n (fun i ->
            Thread.create
              (fun () ->
                if stagger > 0.0 then Thread.delay (float_of_int i *. stagger);
                let wc =
                  {
                    (Cluster.Worker.config ~connect:address
                       ~name:(Printf.sprintf "t%d" i))
                    with
                    Cluster.Worker.chaos = chaos.(i);
                    heartbeat_s = 0.2;
                  }
                in
                outcomes.(i) <-
                  Cluster.Worker.run ~stop:(fun () -> Atomic.get stop) wc)
              ())
      in
      let result = f coord in
      Atomic.set stop true;
      Array.iter Thread.join threads;
      (result, outcomes))

let test_cluster_matches_local_one_worker () =
  let rng = Prelude.Rng.create 31 in
  let groups = grid rng in
  let expected = ground_truth groups in
  let got, _ =
    with_cluster 1 (fun coord -> Cluster.Coordinator.evaluate coord groups)
  in
  check_results_identical expected got

let test_cluster_matches_local_two_workers () =
  let rng = Prelude.Rng.create 31 in
  let groups = grid rng in
  let expected = ground_truth groups in
  let ticks = ref [] in
  let got, _ =
    with_cluster 2 (fun coord ->
        Cluster.Coordinator.evaluate
          ~tick:(fun ~done_ ~total -> ticks := (done_, total) :: !ticks)
          coord groups)
  in
  check_results_identical expected got;
  (* Progress reached completion and total counts deduped tasks. *)
  let done_, total = List.hd !ticks in
  check Alcotest.int "final tick complete" total done_;
  (* 6 requested, one setting shared across the two programs — but only
     dedup-by-key within identical programs counts; distinct programs
     never collide, so total here is the requested 6. *)
  check Alcotest.int "task total" 6 total

let test_cluster_matches_local_under_chaos () =
  let rng = Prelude.Rng.create 47 in
  let groups = grid rng in
  let expected = ground_truth groups in
  let chaos =
    Array.init 8 (fun i ->
        {
          Cluster.Chaos.seed = 7 + i;
          drop = 0.15;
          delay = 0.3;
          max_delay_s = 0.02;
          garble = 0.15;
          kill = 0.0;
        })
  in
  let got, _ =
    with_cluster ~chaos 2 (fun coord ->
        Cluster.Coordinator.evaluate coord groups)
  in
  check_results_identical expected got

let test_cluster_survives_killed_worker () =
  (* One of two workers is chaos-killed mid-lease; the run completes on
     the survivor and stays identical to local evaluation.  Worker 0
     starts first (staggered) so it is guaranteed the first lease, and
     kill=1.0 makes its first task fatal — deterministic under any
     scheduler load, where a probabilistic kill raced the survivor for
     the lease and sometimes never fired. *)
  let rng = Prelude.Rng.create 53 in
  let groups = grid rng in
  let expected = ground_truth groups in
  let chaos = Array.make 8 Cluster.Chaos.none in
  chaos.(0) <-
    {
      Cluster.Chaos.seed = 13;
      drop = 0.0;
      delay = 0.0;
      max_delay_s = 0.0;
      garble = 0.0;
      kill = 1.0;
    };
  let got, outcomes =
    with_cluster ~chaos ~stagger:0.3 2 (fun coord ->
        Cluster.Coordinator.evaluate coord groups)
  in
  check_results_identical expected got;
  check Alcotest.string "chaos worker died" "killed"
    (Cluster.Worker.outcome_to_string outcomes.(0));
  check Alcotest.string "survivor drained" "drained"
    (Cluster.Worker.outcome_to_string outcomes.(1))

let test_cluster_store_warm_rerun_ships_nothing () =
  let rng = Prelude.Rng.create 61 in
  let groups = grid rng in
  let expected = ground_truth groups in
  let store = Store.open_ ~dir:(tmp_dir "warm_store") in
  let hits = Obs.Metrics.counter "cluster.store_hits" in
  let got, _ =
    with_cluster ~store 1 (fun coord ->
        Cluster.Coordinator.evaluate coord groups)
  in
  check_results_identical expected got;
  let before = Obs.Metrics.value hits in
  (* Second coordinator over the same store: every task is warmed, so
     evaluate completes without any worker at all. *)
  let cfg =
    {
      (Cluster.Coordinator.config ()) with
      Cluster.Coordinator.register_timeout_s = 5.0;
    }
  in
  let coord = Cluster.Coordinator.create ~store cfg in
  Fun.protect
    ~finally:(fun () -> Cluster.Coordinator.shutdown coord)
    (fun () ->
      let got2 = Cluster.Coordinator.evaluate coord groups in
      check_results_identical expected got2);
  check Alcotest.int "all 6 tasks answered from the store" 6
    (Obs.Metrics.value hits - before)

(* A raw peer's newline-JSON frame. *)
let send_json fd line =
  match Net.Codec.write fd Net.Codec.Json line with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" (Net.Codec.error_to_string e)

let test_coordinator_tolerates_garbage_then_registers () =
  (* A raw connection sends a garbage line; the coordinator must not
     die, and a subsequent honest registration must still be welcomed. *)
  let cfg = Cluster.Coordinator.config () in
  let coord = Cluster.Coordinator.create cfg in
  Fun.protect
    ~finally:(fun () -> Cluster.Coordinator.shutdown coord)
    (fun () ->
      let address = Cluster.Coordinator.address coord in
      let fd = Net.Addr.connect address in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_json fd "this is not json {{{";
          send_json fd
            (J.to_string
               (Cluster.Wire.to_coordinator_to_json
                  (Cluster.Wire.Register
                     {
                       name = "late-but-honest";
                       pid = Unix.getpid ();
                       fingerprint = Passes.Driver.fingerprint;
                     })));
          match Net.Codec.read (Net.Codec.reader fd) with
          | Ok (_, line) -> (
            match
              Result.bind (J.of_string line) Cluster.Wire.to_worker_of_json
            with
            | Ok (Cluster.Wire.Welcome _) -> ()
            | Ok _ -> Alcotest.fail "expected welcome"
            | Error e -> Alcotest.failf "unparseable reply: %s" e)
          | Error e ->
            Alcotest.failf "no reply: %s" (Net.Codec.error_to_string e)))

let test_coordinator_rejects_fingerprint_mismatch () =
  let cfg = Cluster.Coordinator.config () in
  let coord = Cluster.Coordinator.create cfg in
  Fun.protect
    ~finally:(fun () -> Cluster.Coordinator.shutdown coord)
    (fun () ->
      let address = Cluster.Coordinator.address coord in
      let fd = Net.Addr.connect address in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_json fd
            (J.to_string
               (Cluster.Wire.to_coordinator_to_json
                  (Cluster.Wire.Register
                     {
                       name = "imposter";
                       pid = Unix.getpid ();
                       fingerprint = "not-the-pipeline";
                     })));
          match Net.Codec.read (Net.Codec.reader fd) with
          | Ok (_, line) -> (
            match
              Result.bind (J.of_string line) Cluster.Wire.to_worker_of_json
            with
            | Ok (Cluster.Wire.Reject _) -> ()
            | Ok _ -> Alcotest.fail "expected reject"
            | Error e -> Alcotest.failf "unparseable reply: %s" e)
          | Error e ->
            Alcotest.failf "no reply: %s" (Net.Codec.error_to_string e)))

(* ---- offload backend through Dataset/Crossval -------------------------- *)

let offload_scale =
  {
    Ml_model.Dataset.n_uarchs = 2;
    n_opts = 6;
    seed = 29;
    space = Ml_model.Features.Base;
    good_fraction = 0.2;
  }

let check_datasets_identical (a : Ml_model.Dataset.t)
    (b : Ml_model.Dataset.t) =
  check Alcotest.bool "settings" true
    (a.Ml_model.Dataset.settings = b.Ml_model.Dataset.settings);
  check Alcotest.bool "o3 runs" true
    (a.Ml_model.Dataset.o3_runs = b.Ml_model.Dataset.o3_runs);
  check Alcotest.bool "runs" true
    (a.Ml_model.Dataset.runs = b.Ml_model.Dataset.runs);
  check Alcotest.bool "digests" true
    (a.Ml_model.Dataset.prog_digests = b.Ml_model.Dataset.prog_digests);
  check Alcotest.int "pairs"
    (Array.length a.Ml_model.Dataset.pairs)
    (Array.length b.Ml_model.Dataset.pairs);
  Array.iteri
    (fun i (pa : Ml_model.Dataset.pair) ->
      let pb = b.Ml_model.Dataset.pairs.(i) in
      check Alcotest.bool "pair features" true
        (pa.Ml_model.Dataset.features_raw = pb.Ml_model.Dataset.features_raw);
      check Alcotest.bool "pair times" true
        (pa.Ml_model.Dataset.times = pb.Ml_model.Dataset.times))
    a.Ml_model.Dataset.pairs

let test_offload_dataset_identical () =
  let local = Ml_model.Dataset.generate offload_scale in
  let offloaded, _ =
    with_cluster 2 (fun coord ->
        Ml_model.Dataset.generate
          ~backend:
            (Ml_model.Dataset.Offload
               (fun groups -> Cluster.Coordinator.evaluate coord groups))
          offload_scale)
  in
  check_datasets_identical local offloaded

let test_offload_crossval_identical () =
  let local_d = Ml_model.Dataset.generate offload_scale in
  let local = Ml_model.Crossval.run local_d in
  let offloaded, _ =
    with_cluster 2 (fun coord ->
        let backend =
          Ml_model.Dataset.Offload
            (fun groups -> Cluster.Coordinator.evaluate coord groups)
        in
        let d = Ml_model.Dataset.generate ~backend offload_scale in
        Ml_model.Crossval.run ~backend d)
  in
  check Alcotest.int "outcome count" (Array.length local)
    (Array.length offloaded);
  Array.iteri
    (fun i (a : Ml_model.Crossval.outcome) ->
      let b = offloaded.(i) in
      check Alcotest.int "prog" a.Ml_model.Crossval.prog
        b.Ml_model.Crossval.prog;
      check Alcotest.int "uarch" a.Ml_model.Crossval.uarch
        b.Ml_model.Crossval.uarch;
      check Alcotest.bool "predicted setting" true
        (a.Ml_model.Crossval.predicted = b.Ml_model.Crossval.predicted);
      check Alcotest.bool "predicted seconds bit-identical" true
        (a.Ml_model.Crossval.predicted_seconds
        = b.Ml_model.Crossval.predicted_seconds))
    local

(* ---- worker odds and ends ---------------------------------------------- *)

let test_worker_gives_up_when_no_coordinator () =
  (* Nothing listening: the reconnect budget must run out and report
     Lost (not hang, not raise). *)
  let wc =
    {
      (Cluster.Worker.config
         ~connect:(Net.Addr.Unix_path (tmp_path "nobody_home.sock"))
         ~name:"orphan")
      with
      Cluster.Worker.reconnect =
        {
          Prelude.Backoff.base_s = 0.01;
          factor = 1.5;
          max_s = 0.05;
          jitter = 0.0;
          max_retries = 2;
        };
    }
  in
  check Alcotest.string "lost" "lost"
    (Cluster.Worker.outcome_to_string (Cluster.Worker.run wc))

(* ---- the local-cluster harness ----------------------------------------- *)

let harness_options ?listen workers =
  { Cluster.Harness.workers; listen; lease_size = 2; lease_timeout_s = 2.0 }

(* Launch worker [i] on a thread; its reaper stops it and joins it.
   [launched] counts launches and [reaped] counts reapers run. *)
let thread_launcher () =
  let launched = Atomic.make 0 and reaped = Atomic.make 0 in
  let launch ~connect i =
    Atomic.incr launched;
    let stop = Atomic.make false in
    let wc =
      {
        (Cluster.Worker.config ~connect ~name:(Printf.sprintf "h%d" i)) with
        Cluster.Worker.heartbeat_s = 0.2;
      }
    in
    let run () =
      ignore (Cluster.Worker.run ~stop:(fun () -> Atomic.get stop) wc)
    in
    let th = Thread.create run () in
    fun () ->
      Atomic.set stop true;
      Thread.join th;
      Atomic.incr reaped
  in
  (launch, launched, reaped)

(* Run [f] with marker handlers installed for SIGINT and SIGTERM, and
   the original handlers back afterwards.  [f] gets a predicate telling
   whether both markers are installed right now. *)
let with_marker_handlers f =
  let marker _ = () in
  let installed () =
    List.for_all
      (fun s ->
        let h = Sys.signal s Sys.Signal_default in
        Sys.set_signal s h;
        match h with Sys.Signal_handle g -> g == marker | _ -> false)
      [ Sys.sigint; Sys.sigterm ]
  in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle marker) in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle marker) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigterm prev_term)
    (fun () -> f installed)

let test_harness_matches_local () =
  let rng = Prelude.Rng.create 71 in
  let groups = grid rng in
  let expected = ground_truth groups in
  let launch, launched, reaped = thread_launcher () in
  let keys = ref [] and lock = Mutex.create () in
  let on_result ~task:_ ~key ~run:_ =
    Mutex.protect lock (fun () -> keys := key :: !keys)
  in
  with_marker_handlers (fun installed ->
      let got =
        Cluster.Harness.run ~on_result ~launch (harness_options 2)
          (fun evaluate ->
            check Alcotest.bool "drain handlers installed" false
              (installed ());
            match evaluate with
            | Some evaluate -> evaluate groups
            | None -> Alcotest.fail "no evaluator with two workers")
      in
      (match got with
      | Ok got -> check_results_identical expected got
      | Error e -> Alcotest.failf "harness failed: %s" e);
      check Alcotest.bool "handlers restored" true (installed ()));
  check Alcotest.int "workers launched" 2 (Atomic.get launched);
  check Alcotest.int "workers reaped" 2 (Atomic.get reaped);
  (* 2 programs x 3 distinct settings: six tasks, one call each. *)
  check Alcotest.int "on_result calls" 6 (List.length !keys);
  check Alcotest.int "distinct keys" 6
    (List.length (List.sort_uniq compare !keys))

let test_harness_restores_handlers_on_raise () =
  let launch, launched, _ = thread_launcher () in
  let listen = Net.Addr.Unix_path (tmp_path "harness_raise.sock") in
  with_marker_handlers (fun installed ->
      (match
         Cluster.Harness.run ~launch (harness_options ~listen 0) (fun e ->
             check Alcotest.bool "an evaluator" true (e <> None);
             check Alcotest.bool "drain handlers installed" false
               (installed ());
             raise Exit)
       with
      | _ -> Alcotest.fail "the callback's exception was swallowed"
      | exception Exit -> ());
      check Alcotest.bool "handlers restored" true (installed ()));
  check Alcotest.int "no worker launched" 0 (Atomic.get launched)

let test_harness_no_cluster () =
  let launch, launched, _ = thread_launcher () in
  with_marker_handlers (fun installed ->
      match
        Cluster.Harness.run ~launch (harness_options 0) (fun e ->
            check Alcotest.bool "no evaluator" true (e = None);
            check Alcotest.bool "handlers untouched" true (installed ());
            42)
      with
      | Ok v -> check Alcotest.int "callback result" 42 v
      | Error e -> Alcotest.failf "harness failed: %s" e);
  check Alcotest.int "no worker launched" 0 (Atomic.get launched)

let test_harness_listen_failure () =
  let launch, launched, _ = thread_launcher () in
  let listen =
    Net.Addr.Unix_path (Filename.concat (tmp_path "no_such_dir") "c.sock")
  in
  (match
     Cluster.Harness.run ~launch (harness_options ~listen 2) (fun _ ->
         Alcotest.fail "the callback ran without a coordinator")
   with
  | Ok () -> Alcotest.fail "listening in a missing directory succeeded"
  | Error e ->
    let prefix = "cannot listen on " ^ Net.Addr.to_string listen in
    check Alcotest.bool "names the address" true
      (String.starts_with ~prefix e));
  check Alcotest.int "no worker launched" 0 (Atomic.get launched)

let () =
  Alcotest.run "cluster"
    [
      ( "task",
        [
          Alcotest.test_case "round-trip" `Quick test_task_roundtrip;
          Alcotest.test_case "rejects bad json" `Quick
            test_task_rejects_bad_json;
          Alcotest.test_case "key is the store key" `Quick
            test_task_key_is_store_key;
        ] );
      ( "wire",
        [
          Alcotest.test_case "round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "rejects bad json" `Quick
            test_wire_rejects_bad_json;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "spec round-trip" `Quick
            test_chaos_spec_roundtrip;
          Alcotest.test_case "rejects bad specs" `Quick
            test_chaos_rejects_bad_specs;
          Alcotest.test_case "instance deterministic" `Quick
            test_chaos_instance_deterministic;
          Alcotest.test_case "garble preserves framing" `Quick
            test_chaos_garble_preserves_framing;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "matches local, one worker" `Slow
            test_cluster_matches_local_one_worker;
          Alcotest.test_case "matches local, two workers" `Slow
            test_cluster_matches_local_two_workers;
          Alcotest.test_case "matches local under chaos" `Slow
            test_cluster_matches_local_under_chaos;
          Alcotest.test_case "survives a killed worker" `Slow
            test_cluster_survives_killed_worker;
          Alcotest.test_case "store-warm rerun ships nothing" `Slow
            test_cluster_store_warm_rerun_ships_nothing;
          Alcotest.test_case "tolerates garbage before register" `Quick
            test_coordinator_tolerates_garbage_then_registers;
          Alcotest.test_case "rejects fingerprint mismatch" `Quick
            test_coordinator_rejects_fingerprint_mismatch;
        ] );
      ( "offload",
        [
          Alcotest.test_case "dataset identical to in-process" `Slow
            test_offload_dataset_identical;
          Alcotest.test_case "crossval identical to in-process" `Slow
            test_offload_crossval_identical;
        ] );
      ( "worker",
        [
          Alcotest.test_case "gives up without a coordinator" `Quick
            test_worker_gives_up_when_no_coordinator;
        ] );
      ( "harness",
        [
          Alcotest.test_case "matches local, once per task" `Slow
            test_harness_matches_local;
          Alcotest.test_case "restores handlers when the callback raises"
            `Quick test_harness_restores_handlers_on_raise;
          Alcotest.test_case "no workers, no listen: no coordinator" `Quick
            test_harness_no_cluster;
          Alcotest.test_case "cannot listen: Error, nothing launched" `Quick
            test_harness_listen_failure;
        ] );
    ]
