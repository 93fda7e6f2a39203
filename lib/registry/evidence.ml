(** Training evidence records and ledgers — see evidence.mli for the
    contract. *)

module J = Obs.Json

type record = {
  prog : string;
  prog_digest : string;
  uarch_key : string;
  features_raw : float array;
  good : Passes.Flags.setting array;
}

let pair_key r = r.prog_digest ^ "|" ^ r.uarch_key

(* ---- extraction ------------------------------------------------------- *)

let of_dataset (d : Ml_model.Dataset.t) =
  Array.to_list d.Ml_model.Dataset.pairs
  |> List.map (fun (p : Ml_model.Dataset.pair) ->
         {
           prog =
             d.Ml_model.Dataset.specs.(p.Ml_model.Dataset.prog_index)
               .Workloads.Spec.name;
           prog_digest =
             d.Ml_model.Dataset.prog_digests.(p.Ml_model.Dataset.prog_index);
           uarch_key =
             Uarch.Config.cache_key
               d.Ml_model.Dataset.uarchs.(p.Ml_model.Dataset.uarch_index);
           features_raw = p.Ml_model.Dataset.features_raw;
           good =
             Array.map
               (fun i -> d.Ml_model.Dataset.settings.(i))
               p.Ml_model.Dataset.good;
         })

(* ---- JSON codec ------------------------------------------------------- *)

let to_json r =
  J.Obj
    [
      ("prog", J.Str r.prog);
      ("prog_digest", J.Str r.prog_digest);
      ("uarch", J.Str r.uarch_key);
      ( "features",
        J.List
          (Array.to_list (Array.map (fun f -> J.Float f) r.features_raw)) );
      ( "good",
        J.List
          (Array.to_list
             (Array.map
                (fun (s : Passes.Flags.setting) ->
                  J.List (Array.to_list (Array.map (fun v -> J.Int v) s)))
                r.good)) );
    ]

let ( let* ) = Result.bind

let str_field name j =
  match Option.bind (J.member name j) J.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or malformed %S field" name)

let of_json j =
  let* prog = str_field "prog" j in
  let* prog_digest = str_field "prog_digest" j in
  let* uarch_key = str_field "uarch" j in
  let* features_raw =
    match Option.bind (J.member "features" j) J.to_list with
    | None -> Error "missing or malformed \"features\" field"
    | Some items ->
      let floats = List.filter_map J.to_float items in
      if List.length floats <> List.length items then
        Error "non-numeric feature value"
      else if List.exists (fun f -> not (Float.is_finite f)) floats then
        Error "non-finite feature value"
      else Ok (Array.of_list floats)
  in
  let* good =
    match Option.bind (J.member "good" j) J.to_list with
    | None -> Error "missing or malformed \"good\" field"
    | Some [] -> Error "empty good set"
    | Some items ->
      let rec parse i acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | s :: rest -> (
          match Option.map (List.filter_map J.to_int) (J.to_list s) with
          | None -> Error (Printf.sprintf "good setting %d is not a list" i)
          | Some ints -> (
            let setting = Array.of_list ints in
            match Passes.Flags.validate setting with
            | () -> parse (i + 1) (setting :: acc) rest
            | exception Invalid_argument e ->
              Error (Printf.sprintf "good setting %d: %s" i e)))
      in
      parse 0 [] items
  in
  Ok { prog; prog_digest; uarch_key; features_raw; good }

(* ---- ledger files ----------------------------------------------------- *)

let render records =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b (J.to_string (to_json r));
      Buffer.add_char b '\n')
    records;
  Buffer.contents b

(* The digest is taken over the canonical rendering, not raw file
   bytes, so re-reading and re-writing a ledger cannot change its
   identity. *)
let digest records = Prelude.Fnv.digest_string (render records)

let write ~path records =
  Prelude.Envelope.write_atomic path [ render records ]

let read ~path =
  let* text = Prelude.Envelope.read_file path in
  let lines = String.split_on_char '\n' text in
  let rec parse lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      if line = "" then parse (lineno + 1) acc rest
      else
        let located e =
          Error (Printf.sprintf "%s: line %d: %s" path lineno e)
        in
        (match J.of_string line with
        | Error e -> located ("not valid JSON: " ^ e)
        | Ok j -> (
          match of_json j with
          | Error e -> located e
          | Ok r -> parse (lineno + 1) (r :: acc) rest))
  in
  parse 1 [] lines

(* ---- provenance ------------------------------------------------------- *)

(* First-seen distinct values, folded with a '|' separator after each
   element — the same construction as
   {!Ml_model.Dataset.provenance_digests}, derived from the ledger
   alone so a registry version needs no dataset in memory. *)
let distinct_digest select records =
  let seen = Hashtbl.create 16 in
  let d = Prelude.Fnv.create () in
  List.iter
    (fun r ->
      let v = select r in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        Prelude.Fnv.add_string d v;
        Prelude.Fnv.add_char d '|'
      end)
    records;
  Prelude.Fnv.to_hex d

let programs_digest records = distinct_digest (fun r -> r.prog_digest) records
let uarchs_digest records = distinct_digest (fun r -> r.uarch_key) records

let space records =
  match records with
  | [] -> Error "empty evidence ledger"
  | first :: _ ->
    let dim = Array.length first.features_raw in
    let matching =
      List.find_opt
        (fun s -> Ml_model.Features.dim s = dim)
        [ Ml_model.Features.Base; Ml_model.Features.Extended ]
    in
    (match matching with
    | None ->
      Error
        (Printf.sprintf
           "feature dimension %d matches no feature space (base %d, \
            extended %d)"
           dim
           (Ml_model.Features.dim Ml_model.Features.Base)
           (Ml_model.Features.dim Ml_model.Features.Extended))
    | Some s ->
      if List.for_all (fun r -> Array.length r.features_raw = dim) records
      then Ok s
      else Error "evidence records disagree on feature dimension")
