(** Cross-process trace stitching — see stitch.mli for the contract. *)

type span = {
  process : string;
  id : int;
  name : string;
  parent : int option;  (** same-process parent span id *)
  remote : (string * int) option;  (** cross-process parent (process, span) *)
  ts : float;
  mutable dur_s : float;
  mutable ended : bool;
  mutable children : span list;  (** reverse begin order until sorted *)
}

type process_info = {
  p_name : string;
  p_file : string;
  p_trace_id : string option;
  p_version : int;
  p_argv : string list;
  p_env : (string * string) list;
  mutable p_spans : int;
  mutable p_events : int;
  mutable p_wall : float option;  (** from the stop event *)
  mutable p_metrics : Json.t option;  (** final metrics snapshot *)
}

type t = {
  processes : process_info list;
  roots : span list;
  orphans : span list;
  trace_ids : string list;  (** distinct, sorted *)
  leaves : (string * int * float) list;
}

type tally = { calls : int; total_s : float; self_s : float; max_s : float }

let orphan_count t = List.length t.orphans

let update tbl k zero f =
  let v = Option.value ~default:zero (Hashtbl.find_opt tbl k) in
  Hashtbl.replace tbl k (f v)

(* Largest total first, ties by name. *)
let largest_first total tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match Float.compare (total b) (total a) with
         | 0 -> String.compare ka kb
         | c -> c)

(* ---- loading one file ------------------------------------------------- *)

let str_field name j = Option.bind (Json.member name j) Json.to_str
let int_field name j = Option.bind (Json.member name j) Json.to_int
let float_field name j = Option.bind (Json.member name j) Json.to_float

(* [leaves] totals every file's leaf events by name: count and dur_s. *)
let load_one leaves (file, events) =
  let manifest =
    match events with
    | first :: _ when Json.member "ev" first = Some (Json.Str "manifest") ->
      Some first
    | _ -> None
  in
  (* v1 manifests carry no process name; the file name is the best
     stable identity we have for them. *)
  let p_name =
    match Option.bind manifest (str_field "process") with
    | Some p -> p
    | None -> Filename.basename file
  in
  let info =
    {
      p_name;
      p_file = file;
      p_trace_id = Option.bind manifest (str_field "trace_id");
      p_version =
        Option.value ~default:1 (Option.bind manifest (int_field "version"));
      p_argv =
        (match Option.bind manifest (Json.member "argv") with
        | Some (Json.List items) -> List.filter_map Json.to_str items
        | _ -> []);
      p_env =
        (match Option.bind manifest (Json.member "env") with
        | Some (Json.Obj env) ->
          List.map
            (fun (k, v) -> (k, Option.value ~default:"?" (Json.to_str v)))
            env
        | _ -> []);
      p_spans = 0;
      p_events = 0;
      p_wall = None;
      p_metrics = None;
    }
  in
  let spans : (int, span) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match Json.member "ev" r with
      | Some (Json.Str "span_begin") -> (
        match (int_field "id" r, str_field "name" r) with
        | Some id, Some name ->
          info.p_spans <- info.p_spans + 1;
          let remote =
            match Json.member "remote" r with
            | Some rj -> (
              match (str_field "process" rj, int_field "span" rj) with
              | Some p, Some s -> Some (p, s)
              | _ -> None)
            | None -> None
          in
          Hashtbl.replace spans id
            {
              process = p_name;
              id;
              name;
              parent = int_field "parent" r;
              remote;
              ts = Option.value ~default:0.0 (float_field "ts" r);
              dur_s = 0.0;
              ended = false;
              children = [];
            }
        | _ -> ())
      | Some (Json.Str "span_end") -> (
        match Option.bind (int_field "id" r) (Hashtbl.find_opt spans) with
        | Some s ->
          s.ended <- true;
          s.dur_s <- Option.value ~default:0.0 (float_field "dur_s" r)
        | None -> ())
      | Some (Json.Str "event") ->
        info.p_events <- info.p_events + 1;
        let dur = Option.value ~default:0.0 (float_field "dur_s" r) in
        update leaves
          (Option.value ~default:"?" (str_field "name" r))
          (0, 0.0)
          (fun (n, total) -> (n + 1, total +. dur))
      | Some (Json.Str "metrics") -> info.p_metrics <- Json.member "metrics" r
      | Some (Json.Str "stop") -> info.p_wall <- float_field "dur_s" r
      | _ -> ())
    events;
  (info, spans)

(* ---- joining ---------------------------------------------------------- *)

let join leaves loaded =
  let by_key : (string * int, span) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (info, spans) ->
      Hashtbl.iter
        (fun id s -> Hashtbl.replace by_key (info.p_name, id) s)
        spans)
    loaded;
  let roots = ref [] and orphans = ref [] in
  Hashtbl.iter
    (fun _ s ->
      (* Local parent wins; a remote reference only matters for spans
         with no enclosing span in their own process. *)
      let parent_key =
        match s.parent with Some p -> Some (s.process, p) | None -> s.remote
      in
      match parent_key with
      | None -> roots := s :: !roots
      | Some key -> (
        match Hashtbl.find_opt by_key key with
        | Some parent when parent != s -> parent.children <- s :: parent.children
        | _ -> orphans := s :: !orphans))
    by_key;
  let rec sort_children s =
    s.children <- List.sort (fun a b -> Float.compare a.ts b.ts) s.children;
    List.iter sort_children s.children
  in
  let by_ts = List.sort (fun a b -> Float.compare a.ts b.ts) in
  let roots = by_ts !roots in
  List.iter sort_children roots;
  let trace_ids =
    List.sort_uniq String.compare
      (List.filter_map (fun (i, _) -> i.p_trace_id) loaded)
  in
  {
    processes = List.map fst loaded;
    roots;
    orphans = by_ts !orphans;
    trace_ids;
    leaves =
      List.map (fun (name, (n, dur)) -> (name, n, dur))
        (largest_first snd leaves);
  }

(* Spans are keyed by (process, id), so two files that claim one
   process would overwrite each other's spans and double its metrics. *)
let stitch traces =
  let leaves = Hashtbl.create 16 in
  let loaded = List.map (load_one leaves) traces in
  let first_file = Hashtbl.create 8 in
  let clash (info, _) =
    match Hashtbl.find_opt first_file info.p_name with
    | Some file ->
      Some
        (Printf.sprintf "%s and %s both trace process %s" file info.p_file
           info.p_name)
    | None ->
      Hashtbl.add first_file info.p_name info.p_file;
      None
  in
  match List.find_map clash loaded with
  | Some e -> Error e
  | None -> Ok (join leaves loaded)

(* ---- analysis --------------------------------------------------------- *)

(* Self time subtracts only same-process children: a child running in
   another process overlaps its parent's wall clock rather than
   consuming it. *)
let self_time s =
  let local_child_time =
    List.fold_left
      (fun acc c -> if c.process = s.process then acc +. c.dur_s else acc)
      0.0 s.children
  in
  Float.max 0.0 (s.dur_s -. local_child_time)

let critical_path t =
  let widest = function
    | [] -> None
    | spans ->
      Some
        (List.fold_left
           (fun best s -> if s.dur_s > best.dur_s then s else best)
           (List.hd spans) (List.tl spans))
  in
  let rec down acc s =
    match widest s.children with
    | None -> List.rev (s :: acc)
    | Some c -> down (s :: acc) c
  in
  match widest t.roots with None -> [] | Some root -> down [] root

(* Every stitched span: the roots' trees, then the orphans'. *)
let iter_spans t f =
  let rec walk s =
    f s;
    List.iter walk s.children
  in
  List.iter walk t.roots;
  List.iter walk t.orphans

let per_process_self t =
  let tbl = Hashtbl.create 8 in
  iter_spans t (fun s -> update tbl s.process 0.0 (( +. ) (self_time s)));
  largest_first Fun.id tbl

let spans_by_name t =
  let tbl = Hashtbl.create 32 in
  let zero = { calls = 0; total_s = 0.0; self_s = 0.0; max_s = 0.0 } in
  iter_spans t (fun s ->
      if s.ended then
        update tbl s.name zero (fun a ->
            {
              calls = a.calls + 1;
              total_s = a.total_s +. s.dur_s;
              self_s = a.self_s +. self_time s;
              max_s = Float.max a.max_s s.dur_s;
            }));
  largest_first (fun a -> a.total_s) tbl

let merged_metrics t =
  match List.filter_map (fun p -> p.p_metrics) t.processes with
  | [] -> None
  | snaps -> Some (Metrics.merge_snapshots snaps)

(* ---- rendering -------------------------------------------------------- *)

(* The causal tree is truncated for eyes: depth and the spans shown at
   each level are bounded, with elision counts so nothing hides. *)
let max_depth = 4
let max_children = 8

let render t =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "stitched trace: %d file(s), %d process(es)\n" (List.length t.processes)
    (List.length t.processes);
  (match t.trace_ids with
  | [] -> ()
  | [ id ] -> out "trace_id: %s\n" id
  | ids ->
    out "warning: %d distinct trace ids (%s) — files may belong to different runs\n"
      (List.length ids) (String.concat ", " ids));
  List.iter
    (fun p ->
      out "  %-24s %4d spans %5d events%s  (v%d, %s)\n" p.p_name p.p_spans
        p.p_events
        (match p.p_wall with
        | Some w -> Printf.sprintf "  wall %7.2fs" w
        | None -> "  wall       ?s")
        p.p_version p.p_file;
      if p.p_argv <> [] then out "    argv: %s\n" (String.concat " " p.p_argv);
      if p.p_env <> [] then
        out "    env:  %s\n"
          (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) p.p_env)))
    t.processes;
  out "orphan spans: %d\n" (List.length t.orphans);
  List.iter
    (fun s ->
      out "  orphan %s/%d %s (parent %s)\n" s.process s.id s.name
        (match (s.parent, s.remote) with
        | Some p, _ -> Printf.sprintf "local %d" p
        | None, Some (pr, sp) -> Printf.sprintf "remote %s/%d" pr sp
        | None, None -> "?"))
    t.orphans;
  if t.roots <> [] then begin
    out "\ncausal tree (dur_s [self_s] name @process):\n";
    let rec tree depth prefix s =
      out "%s%9.3f [%7.3f] %s @%s%s\n" prefix s.dur_s (self_time s) s.name
        s.process
        (if s.ended then "" else " (no end: truncated)");
      if depth < max_depth then
        level (depth + 1) (prefix ^ "  ") "children" s.children
      else if s.children <> [] then
        out "%s  ... %d children below depth cut\n" prefix
          (List.length s.children)
    and level depth prefix what spans =
      List.iteri (fun i s -> if i < max_children then tree depth prefix s)
        spans;
      let n = List.length spans in
      if n > max_children then
        out "%s... %d more %s\n" prefix (n - max_children) what
    in
    level 0 "  " "roots" t.roots
  end;
  (* A titled table, left out when it has no rows. *)
  let table heading rows row =
    if rows <> [] then begin
      out "\n%s\n" heading;
      List.iter row rows
    end
  in
  table "critical path (slowest child at each level):" (critical_path t)
    (fun s ->
      out "  %9.3fs [self %7.3fs] %s @%s\n" s.dur_s (self_time s) s.name
        s.process);
  table "per-process self time (local children subtracted):"
    (per_process_self t) (fun (p, secs) -> out "  %-24s %9.3fs\n" p secs);
  table
    "spans by name (self_s: local children subtracted):\n\
    \  name                            calls    total_s     self_s      max_s"
    (spans_by_name t)
    (fun (name, a) ->
      out "  %-28s %8d %10.3f %10.3f %10.6f\n" name a.calls a.total_s a.self_s
        a.max_s);
  table
    "leaf events by name:\n\
    \  name                            count      dur_s"
    t.leaves
    (fun (name, n, dur) -> out "  %-28s %8d %10.3f\n" name n dur);
  Option.iter
    (fun m ->
      let section name =
        match Json.member name m with Some (Json.Obj kv) -> kv | _ -> []
      in
      let value v = Option.value ~default:0.0 (Json.to_float v) in
      List.iter
        (fun (title, show) ->
          table
            (title ^ " (nonzero, summed across processes):")
            (List.filter (fun (_, v) -> value v <> 0.0) (section title))
            (fun (k, v) -> out "  %-40s %s\n" k (show (value v))))
        [
          ("counters", Printf.sprintf "%.0f");
          ("gauges", Printf.sprintf "%.3f");
        ];
      table
        "merged histograms (bucket-added across processes):\n\
        \  name                                    count        p50\
        \        p90        p99"
        (section "histograms")
        (fun (k, v) ->
          let count =
            Option.value ~default:0
              (Option.bind (Json.member "count" v) Json.to_int)
          in
          let q p =
            match Metrics.quantile_of_json v p with
            | Some x -> Printf.sprintf "%10.6f" x
            | None -> Printf.sprintf "%10s" "-"
          in
          if count > 0 then
            out "  %-36s %8d %s %s %s\n" k count (q 0.5) (q 0.9) (q 0.99)))
    (merged_metrics t);
  Buffer.contents buf
