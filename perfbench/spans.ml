(* In-memory spans around the public calls a replay makes.

   Spans are recorded from the benchmark's side of each call, kept in
   memory while the replay runs, and written out once at the end in the
   repository's JSONL trace format (docs/observability.md), so
   [portopt report] reads them.  Single-threaded by construction: the
   replays never fan out. *)

module J = Obs.Json

type span = {
  id : int;
  parent : int option;
  name : string;
  t0 : float;
  t1 : float;
  cpu : float;
}

let origin = Obs.Clock.now_s ()
let origin_cpu = Obs.Clock.cpu_s ()
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let with_ name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> Some p | [] -> None in
  stack := id :: !stack;
  let c0 = Obs.Clock.cpu_s () in
  let t0 = Obs.Clock.now_s () in
  let finish () =
    let t1 = Obs.Clock.now_s () in
    let cpu = Obs.Clock.cpu_s () -. c0 in
    stack := List.tl !stack;
    recorded := { id; parent; name; t0; t1; cpu } :: !recorded
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let all () = List.rev !recorded

(* Per-name totals: calls and wall seconds. *)
type total = { mutable calls : int; mutable wall : float }

let compute_totals () =
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let t =
        match Hashtbl.find_opt by_name s.name with
        | Some t -> t
        | None ->
          let t = { calls = 0; wall = 0.0 } in
          Hashtbl.add by_name s.name t;
          t
      in
      t.calls <- t.calls + 1;
      t.wall <- t.wall +. (s.t1 -. s.t0))
    !recorded;
  by_name

(* Recomputed only when spans were recorded since the last call. *)
let memo = ref (-1, Hashtbl.create 1)

let totals () =
  let n, t = !memo in
  if n = !next_id then t
  else begin
    let t = compute_totals () in
    memo := (!next_id, t);
    t
  end

let total name =
  match Hashtbl.find_opt (totals ()) name with
  | Some t -> t
  | None -> { calls = 0; wall = 0.0 }

(* The trace file: manifest, begin/end pairs in causal order (a depth-first
   walk by id, which is start order in a single thread), the final metrics
   snapshot and the stop record. *)
let write ~path ~cmd ~extra =
  let spans = Array.of_list (all ()) in
  Array.sort (fun a b -> Int.compare a.id b.id) spans;
  let children = Hashtbl.create 1024 in
  let roots = ref [] in
  Array.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p s
      | None -> roots := s :: !roots)
    spans;
  let oc = open_out path in
  let seq = ref 0 in
  let emit ev ts fields =
    let line =
      J.to_string
        (J.Obj
           ((("ev", J.Str ev) :: ("ts", J.Float ts) :: ("seq", J.Int !seq) :: fields)))
    in
    incr seq;
    output_string oc line;
    output_char oc '\n'
  in
  let process = Printf.sprintf "pbench-%d" (Unix.getpid ()) in
  emit "manifest" 0.0
    ([
       ("version", J.Int 2);
       ("trace_id", J.Str (Printf.sprintf "%016x" (Hashtbl.hash (process, origin))));
       ("process", J.Str process);
       ("unix_time", J.Float origin);
       ("git", J.Str "unknown");
       ("ocaml", J.Str Sys.ocaml_version);
       ("argv", J.List (Array.to_list (Array.map (fun a -> J.Str a) Sys.argv)));
       ("env", J.Obj []);
       ("cmd", J.Str cmd);
     ]
    @ extra);
  let rec walk s =
    emit "span_begin" (s.t0 -. origin)
      [
        ("id", J.Int s.id);
        ("parent", match s.parent with Some p -> J.Int p | None -> J.Null);
        ("name", J.Str s.name);
      ];
    List.iter walk (List.rev (Hashtbl.find_all children s.id));
    emit "span_end" (s.t1 -. origin)
      [
        ("id", J.Int s.id);
        ("name", J.Str s.name);
        ("dur_s", J.Float (s.t1 -. s.t0));
        ("cpu_s", J.Float s.cpu);
        ("ok", J.Bool true);
      ]
  in
  List.iter walk (List.rev !roots);
  let now = Obs.Clock.now_s () -. origin in
  emit "metrics" now [ ("metrics", Obs.Metrics.snapshot ()) ];
  emit "stop" now
    [
      ("dur_s", J.Float now);
      ("cpu_s", J.Float (Obs.Clock.cpu_s () -. origin_cpu));
    ];
  close_out oc;
  match Obs.Trace.validate_file path with
  | Ok _ -> ()
  | Error e -> failwith ("perfbench: trace failed validation: " ^ e)
