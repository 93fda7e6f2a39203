(** Fixed-size domain work pool — see pool.mli for the contract.

    One mutex guards all batch state.  Workers sleep on [work_ready]
    until the generation counter moves, claim indices from a shared
    cursor, and run tasks outside the lock; the submitting domain
    participates in the batch and then sleeps on [work_done] until the
    completion count reaches the batch size.  Results land in a
    per-batch array slot keyed by index, so scheduling order can never
    reorder output. *)

type batch = { run : int -> unit; n : int }

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t;  (** New batch published, or shutdown. *)
  work_done : Condition.t;  (** Completion count reached the batch size. *)
  mutable batch : batch option;
  mutable next : int;  (** Next unclaimed index of the current batch. *)
  mutable completed : int;
  mutable generation : int;  (** Bumped per batch so workers detect it. *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  tasks : (unit -> unit) Queue.t;
      (** Async single tasks ([submit]); serviced by workers between
          batches, drained under [mutex]. *)
  mutable service : Thread.t option;
      (** A domainless pool's [submit] worker, started on first use. *)
  busy : float array;
      (** Cumulative task seconds per participant (0 = submitter);
          written under [mutex] in [drain], read at [shutdown]. *)
}

let size t = t.size

(* Telemetry: batches/tasks ever submitted, per-task wall seconds, and
   the live depth of the unclaimed-work queue.  All observational —
   which domain runs a task never affects its result. *)
let m_batches = Obs.Metrics.counter "pool.batches"
let m_tasks = Obs.Metrics.counter "pool.tasks"
let m_task_seconds = Obs.Metrics.hist "pool.task_seconds"
let m_queue_depth = Obs.Metrics.gauge "pool.queue_depth"
let m_async = Obs.Metrics.counter "pool.async_tasks"
let m_async_errors = Obs.Metrics.counter "pool.async_errors"

(* Claim-and-run loop shared by workers and the submitting domain.
   [who] is the participant index (0 = submitter) for busy-time
   accounting.  Called and returns with [t.mutex] held. *)
let drain t ~who (b : batch) =
  let continue = ref true in
  while !continue do
    if t.next >= b.n then continue := false
    else begin
      let i = t.next in
      t.next <- i + 1;
      Obs.Metrics.set m_queue_depth (float_of_int (b.n - t.next));
      Mutex.unlock t.mutex;
      let t0 = Obs.Clock.now_s () in
      b.run i;
      let dur = Obs.Clock.now_s () -. t0 in
      Obs.Metrics.observe m_task_seconds dur;
      Mutex.lock t.mutex;
      t.busy.(who) <- t.busy.(who) +. dur;
      t.completed <- t.completed + 1;
      if t.completed = b.n then Condition.broadcast t.work_done
    end
  done

(* Run one async task outside the lock.  Exceptions cannot be
   re-raised anywhere meaningful from a detached worker, so they are
   counted and swallowed: [submit] callers that care thread their own
   error channel through the closure.  Called and returns with
   [t.mutex] held. *)
let run_async t ~who task =
  Mutex.unlock t.mutex;
  let t0 = Obs.Clock.now_s () in
  (try task () with _ -> Obs.Metrics.add m_async_errors 1);
  let dur = Obs.Clock.now_s () -. t0 in
  Obs.Metrics.observe m_task_seconds dur;
  Mutex.lock t.mutex;
  t.busy.(who) <- t.busy.(who) +. dur

(* [initial_gen] is the generation at spawn time, captured before the
   domain starts: a batch published while the worker is still booting
   must not be skipped. *)
let worker t ~who initial_gen =
  Mutex.lock t.mutex;
  let seen = ref initial_gen in
  while not t.stop do
    if t.generation <> !seen then begin
      seen := t.generation;
      match t.batch with None -> () | Some b -> drain t ~who b
    end
    else if not (Queue.is_empty t.tasks) then
      run_async t ~who (Queue.pop t.tasks)
    else Condition.wait t.work_ready t.mutex
  done;
  Mutex.unlock t.mutex

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      size = jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      batch = None;
      next = 0;
      completed = 0;
      generation = 0;
      stop = false;
      domains = [];
      tasks = Queue.create ();
      service = None;
      busy = Array.make jobs 0.0;
    }
  in
  t.domains <-
    List.init (jobs - 1)
      (fun i -> Domain.spawn (fun () -> worker t ~who:(i + 1) 0));
  t

exception Closed

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- [];
  Option.iter Thread.join t.service;
  t.service <- None;
  (* Workers exit on [stop] without draining the async queue; run any
     leftovers inline so work accepted before shutdown is never
     silently dropped (same swallow-and-count error semantics as
     [run_async]). *)
  let rec drain_rest () =
    Mutex.lock t.mutex;
    let task = Queue.take_opt t.tasks in
    Mutex.unlock t.mutex;
    match task with
    | None -> ()
    | Some task ->
      (try task () with _ -> Obs.Metrics.add m_async_errors 1);
      drain_rest ()
  in
  drain_rest ();
  Array.iteri
    (fun i b ->
      Obs.Metrics.set
        (Obs.Metrics.gauge (Printf.sprintf "pool.domain%d.busy_s" i))
        b)
    t.busy

let init t n f =
  if n = 0 then [||]
  else if t.domains = [] || n = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    (* First-by-index exception wins, so failures are deterministic. *)
    let err_mutex = Mutex.create () in
    let err = ref None in
    let run i =
      match f i with
      | v -> results.(i) <- Some v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock err_mutex;
        (match !err with
        | Some (j, _, _) when j <= i -> ()
        | _ -> err := Some (i, e, bt));
        Mutex.unlock err_mutex
    in
    let b = { run; n } in
    Mutex.lock t.mutex;
    if t.batch <> None then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.init: nested use of a fixed-size pool"
    end;
    Obs.Metrics.add m_batches 1;
    Obs.Metrics.add m_tasks n;
    t.batch <- Some b;
    t.next <- 0;
    t.completed <- 0;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_ready;
    drain t ~who:0 b;
    while t.completed < n do
      Condition.wait t.work_done t.mutex
    done;
    t.batch <- None;
    Mutex.unlock t.mutex;
    match !err with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map Option.get results
  end

let map t f xs = init t (Array.length xs) (fun i -> f xs.(i))

let submit t task =
  Obs.Metrics.add m_async 1;
  Mutex.lock t.mutex;
  if t.stop then begin
    (* A drained pool refusing work must be loud: silently dropping (or
       silently running inline) hides lifecycle bugs in callers that
       race shutdown — the cluster drain path depends on this raise. *)
    Mutex.unlock t.mutex;
    raise Closed
  end;
  (* Never on the caller's thread: a domainless pool (jobs = 1) serves
     its queue from one thread of its own, running the worker loop. *)
  if t.domains = [] && t.service = None then
    t.service <- Some (Thread.create (worker t ~who:0) t.generation);
  Queue.push task t.tasks;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex

let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.tasks in
  Mutex.unlock t.mutex;
  n

let jobs () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some v when v > 0 -> v
    | _ -> invalid_arg "REPRO_JOBS must be a positive integer"
  )
  | None -> Domain.recommended_domain_count ()

let default_pool = ref None
let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      let p = create ~jobs:(jobs ()) in
      Obs.Metrics.set (Obs.Metrics.gauge "pool.jobs") (float_of_int p.size);
      default_pool := Some p;
      at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock default_mutex;
  p

let serialised f =
  let m = Mutex.create () in
  fun x ->
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f x)
