(** Content-addressed, versioned model registry — see registry.mli for
    the contract. *)

module J = Obs.Json
module Evidence = Evidence
module Refit = Refit

type t = { root : string }

let default_dir = ".portopt-registry"

let objects_dir t = Filename.concat t.root "objects"
let lineage_dir t = Filename.concat t.root "lineage"
let evidence_dir t = Filename.concat t.root "evidence"
let channels_dir t = Filename.concat t.root "channels"

let object_path t id = Filename.concat (objects_dir t) (id ^ ".pcm")
let lineage_path t id = Filename.concat (lineage_dir t) (id ^ ".json")
let evidence_path t id = Filename.concat (evidence_dir t) (id ^ ".jsonl")
let channel_path t name = Filename.concat (channels_dir t) name

let open_ ~dir =
  let t = { root = dir } in
  List.iter Prelude.Envelope.mkdir_p
    [ objects_dir t; lineage_dir t; evidence_dir t; channels_dir t ];
  t

let dir t = t.root

(* ---- metrics ---------------------------------------------------------- *)

let m_publishes = Obs.Metrics.counter "registry.publishes"
let m_resolves = Obs.Metrics.counter "registry.resolves"
let m_gc_deleted = Obs.Metrics.counter "registry.gc.deleted"

(* ---- identifiers and channels ----------------------------------------- *)

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let valid_id id =
  String.length id = 16 && String.for_all is_hex id

let valid_channel_name name =
  name <> "" && String.length name <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       name
  && name.[0] <> '.'

let ids t =
  match Sys.readdir (objects_dir t) with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".pcm" then
             let id = Filename.chop_suffix f ".pcm" in
             if valid_id id then Some id else None
           else None)
    |> List.sort compare

let channel t name =
  if not (valid_channel_name name) then None
  else
    match Prelude.Envelope.read_file (channel_path t name) with
    | Error _ -> None
    | Ok text ->
      let id = String.trim text in
      if valid_id id then Some id else None

let channels t =
  match Sys.readdir (channels_dir t) with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun name ->
           match channel t name with
           | Some id -> Some (name, id)
           | None -> None)
    |> List.sort compare

let set_channel t ~name ~id =
  if not (valid_channel_name name) then
    Error
      (Printf.sprintf
         "invalid channel name %S (lowercase letters, digits, '-', '_', \
          '.'; not starting with '.')"
         name)
  else if not (Sys.file_exists (object_path t id)) then
    Error (Printf.sprintf "no version %s in registry %s" id t.root)
  else begin
    (* One line, atomically renamed into place: a reader (the server's
       registry watch, a concurrent resolve) sees either the old or the
       new pointer, never a torn one. *)
    Prelude.Envelope.write_atomic (channel_path t name) [ id; "\n" ];
    Ok ()
  end

let resolve_id t name =
  match channel t name with
  | Some id ->
    if Sys.file_exists (object_path t id) then Ok id
    else
      Error
        (Printf.sprintf "channel %S points at missing version %s" name id)
  | None ->
    if valid_id name && Sys.file_exists (object_path t name) then Ok name
    else if
      String.length name >= 4
      && String.length name < 16
      && String.for_all is_hex name
    then begin
      match List.filter (String.starts_with ~prefix:name) (ids t) with
      | [ id ] -> Ok id
      | [] ->
        Error
          (Printf.sprintf "no version or channel %S in registry %s" name
             t.root)
      | matches ->
        Error
          (Printf.sprintf "ambiguous version prefix %S (%d matches: %s)"
             name (List.length matches)
             (String.concat ", " matches))
    end
    else
      Error
        (Printf.sprintf "no version or channel %S in registry %s" name t.root)

(* ---- lineage ---------------------------------------------------------- *)

type lineage = {
  l_id : string;
  l_parent : string option;
  l_created : float;
  l_k : int;
  l_beta : float;
  l_space : string;
  l_pairs : int;
  l_records : int;
  l_evidence_digest : string;
  l_programs_digest : string;
  l_uarchs_digest : string;
  l_objective : string;
}

let lineage_to_json l =
  (* The objective is written only when non-default, so lineage files
     from before multi-objective training — and every cycles-trained
     version since — stay byte-identical. *)
  let objective_field =
    if l.l_objective = Objective.Spec.to_string Objective.Spec.default then []
    else [ ("objective", J.Str l.l_objective) ]
  in
  J.Obj
    ([
       ("id", J.Str l.l_id);
       ("parent", match l.l_parent with None -> J.Null | Some p -> J.Str p);
       ("created_unix", J.Float l.l_created);
       ("k", J.Int l.l_k);
       ("beta", J.Float l.l_beta);
       ("space", J.Str l.l_space);
       ("pairs", J.Int l.l_pairs);
       ("records", J.Int l.l_records);
       ("evidence_digest", J.Str l.l_evidence_digest);
       ("programs_digest", J.Str l.l_programs_digest);
       ("uarchs_digest", J.Str l.l_uarchs_digest);
     ]
    @ objective_field)

let ( let* ) = Result.bind

let lineage_of_json j =
  let* l_id = J.field "id" J.to_str j in
  let* l_parent =
    match J.member "parent" j with
    | Some J.Null -> Ok None
    | Some (J.Str p) -> Ok (Some p)
    | _ -> Error "missing or malformed \"parent\" field"
  in
  let* l_created = J.field "created_unix" J.to_float j in
  let* l_k = J.field "k" J.to_int j in
  let* l_beta = J.field "beta" J.to_float j in
  let* l_space = J.field "space" J.to_str j in
  let* l_pairs = J.field "pairs" J.to_int j in
  let* l_records = J.field "records" J.to_int j in
  let* l_evidence_digest = J.field "evidence_digest" J.to_str j in
  let* l_programs_digest = J.field "programs_digest" J.to_str j in
  let* l_uarchs_digest = J.field "uarchs_digest" J.to_str j in
  let l_objective =
    (* Absent in pre-objective lineage records: read as the default. *)
    match J.member "objective" j with
    | Some (J.Str s) -> s
    | _ -> Objective.Spec.to_string Objective.Spec.default
  in
  Ok
    {
      l_id;
      l_parent;
      l_created;
      l_k;
      l_beta;
      l_space;
      l_pairs;
      l_records;
      l_evidence_digest;
      l_programs_digest;
      l_uarchs_digest;
      l_objective;
    }

let lineage t id =
  let path = lineage_path t id in
  let* text =
    Result.map_error
      (fun e -> path ^ ": " ^ e)
      (Prelude.Envelope.read_file path)
  in
  let* j =
    Result.map_error (fun e -> path ^ ": not valid JSON: " ^ e)
      (J.of_string text)
  in
  Result.map_error (fun e -> path ^ ": " ^ e) (lineage_of_json j)

let versions t =
  let rec go acc = function
    | [] ->
      Ok
        (List.sort
           (fun a b ->
             match compare a.l_created b.l_created with
             | 0 -> compare a.l_id b.l_id
             | c -> c)
           acc)
    | id :: rest ->
      let* l = lineage t id in
      go (l :: acc) rest
  in
  go [] (ids t)

(* ---- evidence --------------------------------------------------------- *)

let evidence t id =
  if not (Sys.file_exists (object_path t id)) then
    Error (Printf.sprintf "no version %s in registry %s" id t.root)
  else Evidence.read ~path:(evidence_path t id)

(* ---- resolve ---------------------------------------------------------- *)

let resolve t name =
  let* id = resolve_id t name in
  let* digest, artifact = Serve.Artifact.read ~path:(object_path t id) in
  (* Objects are filed under their own digest; one copied or renamed
     under another id would be served under a name that is not its
     content. *)
  if digest <> id then
    Error
      (Printf.sprintf
         "version %s: object content has digest %s (an object must be \
          filed under its own digest)"
         id digest)
  else begin
    Obs.Metrics.add m_resolves 1;
    Ok (id, artifact)
  end

(* ---- model source ----------------------------------------------------- *)

(* The arms last handed out, each with its id.  An id is the artifact's
   content, so an arm whose id did not move is reused, and an id already
   held by the other arm (a promote) is not read again. *)
let source t ~stable_channel ~candidate_channel =
  let held = ref None in
  let fetch id =
    match !held with
    | Some (((sid, _) as s), _) when sid = id -> Ok s
    | Some (_, Some ((cid, _) as c)) when cid = id -> Ok c
    | _ -> resolve t id
  in
  fun () ->
    let* stable_id = resolve_id t stable_channel in
    let candidate_id = Option.bind candidate_channel (channel t) in
    match !held with
    | Some ((sid, _), c) when sid = stable_id && Option.map fst c = candidate_id
      ->
      Ok Serve.Server.Unchanged
    | _ ->
      let* stable = fetch stable_id in
      let* candidate =
        match candidate_id with
        | None -> Ok None
        | Some id -> Result.map Option.some (fetch id)
      in
      held := Some (stable, candidate);
      Ok (Serve.Server.Swap { stable; candidate })

(* ---- publish ---------------------------------------------------------- *)

let publish ?k ?beta ?parent ?channel
    ?(objective = Objective.Spec.default) ~created t delta =
  let* parent_id, base =
    match parent with
    | None -> Ok (None, [])
    | Some p ->
      let* id = resolve_id t p in
      let* ev = evidence t id in
      Ok (Some id, ev)
  in
  if delta = [] && base = [] then Error "publish: no evidence records"
  else begin
    let union = base @ delta in
    let* space = Evidence.space union in
    (* The incremental path: the parent's counts state, extended by the
       fresh records.  [Refit]'s exactness contract makes this
       bit-identical to [of_records union] — a cold retrain — which is
       why the content-addressed id below dedupes the two. *)
    let state = Refit.of_records base in
    Refit.fold state delta;
    let* model = Refit.to_model ?k ?beta state in
    (* The wall-clock lives in the lineage record, not the artifact
       meta: the version id must content-address the model alone, so
       the same evidence republished later (or refit vs cold retrain)
       dedupes to one version. *)
    let meta =
      [
        ("pairs", J.Int (Refit.pairs state));
        ("evidence_records", J.Int (Refit.records state));
        ("evidence_digest", J.Str (Evidence.digest union));
        ("programs_digest", J.Str (Evidence.programs_digest union));
        ("uarchs_digest", J.Str (Evidence.uarchs_digest union));
      ]
      (* Non-default objective is part of the artifact's identity: the
         field changes the payload, hence the version id — the same
         evidence declared under a different objective is a different
         version.  Defaults add nothing, keeping cycles versions
         byte-identical to pre-objective ones. *)
      @ (if Objective.Spec.is_default objective then []
         else
           [ ("objective", J.Str (Objective.Spec.to_string objective)) ])
    in
    let artifact = { Serve.Artifact.model; space; meta } in
    let sealed = Serve.Artifact.encode artifact in
    let id = sealed.Prelude.Envelope.digest in
    let l =
      {
        l_id = id;
        l_parent = parent_id;
        l_created = created;
        l_k = Ml_model.Model.k model;
        l_beta = Ml_model.Model.beta model;
        l_space = Ml_model.Features.space_to_string space;
        l_pairs = Refit.pairs state;
        l_records = Refit.records state;
        l_evidence_digest = Evidence.digest union;
        l_programs_digest = Evidence.programs_digest union;
        l_uarchs_digest = Evidence.uarchs_digest union;
        l_objective = Objective.Spec.to_string objective;
      }
    in
    (* Content-addressed dedup: republishing identical content is a
       no-op for the object and ledger; the first lineage record wins
       (two derivations of the same bytes are equally true — the stored
       one simply documents the first).  Channel pointers always move.
       Every file is written to a unique temp name and renamed
       ({!Prelude.Envelope.write_atomic}), so concurrent publishers of
       the same content race benignly: both write identical bytes and
       whichever rename lands last wins. *)
    if not (Sys.file_exists (object_path t id)) then
      Prelude.Envelope.write ~path:(object_path t id) sealed;
    if not (Sys.file_exists (evidence_path t id)) then
      Evidence.write ~path:(evidence_path t id) union;
    let* l =
      if Sys.file_exists (lineage_path t id) then lineage t id
      else begin
        Prelude.Envelope.write_atomic (lineage_path t id)
          [ J.to_string (lineage_to_json l) ];
        Ok l
      end
    in
    let* () = set_channel t ~name:"latest" ~id in
    let* () =
      match channel with
      | None -> Ok ()
      | Some name -> set_channel t ~name ~id
    in
    Obs.Metrics.add m_publishes 1;
    Ok l
  end

(* ---- gc --------------------------------------------------------------- *)

let gc ?(dry_run = false) t =
  (* Roots are the channel pointers; liveness closes over lineage
     parent chains, so the full history of every channel survives.
     A corrupt lineage record in a live chain aborts the sweep rather
     than guessing — gc must never delete a reachable version. *)
  let live = Hashtbl.create 16 in
  let rec mark id =
    if Hashtbl.mem live id then Ok ()
    else begin
      Hashtbl.add live id ();
      if Sys.file_exists (lineage_path t id) then
        let* l = lineage t id in
        match l.l_parent with None -> Ok () | Some p -> mark p
      else Ok ()
    end
  in
  let rec mark_roots = function
    | [] -> Ok ()
    | (name, id) :: rest ->
      if not (Sys.file_exists (object_path t id)) then
        Error
          (Printf.sprintf "channel %S points at missing version %s" name id)
      else
        let* () = mark id in
        mark_roots rest
  in
  let* () = mark_roots (channels t) in
  let all = ids t in
  let dead = List.filter (fun id -> not (Hashtbl.mem live id)) all in
  if not dry_run then
    List.iter
      (fun id ->
        List.iter
          (fun path ->
            try Sys.remove path with Sys_error _ -> ())
          [ object_path t id; lineage_path t id; evidence_path t id ];
        Obs.Metrics.add m_gc_deleted 1)
      dead;
  Ok (dead, List.length all - List.length dead)
