(** Versioned, checksummed model artifacts.

    Freezes a trained {!Ml_model.Model} — per-pair multinomial
    distributions (equations 2–5), normalised feature rows, the feature
    scaler, the K/beta hyperparameters and (since version 2) a VP-tree
    over the rows — into a two-line {!Prelude.Envelope} file,
    the format store records use too:

    {v
    {"magic":"portopt-model","version":2,"checksum":"fnv1a64:...","bytes":N}
    {"k":7,"beta":1.0,"space":"base","mask":null,"normaliser":...,"index":...}
    v}

    The header carries an FNV-1a 64 checksum and the byte length of the
    payload line, so truncation and corruption are detected before the
    payload is even parsed; the payload is one {!Obs.Json} object whose
    floats round-trip bit-exactly (shortest-representation printing),
    making a loaded model's predictions bit-identical to the model that
    was saved.  [read] validates the schema version, the checksum and
    every structural invariant ({!Ml_model.Model.import}), returns a
    human-readable error on any mismatch, and returns the verified
    checksum digest as the artifact's version id.

    Versioning is minor-compatible downwards: this build writes
    version 2 and still loads version-1 files (no ["index"] field); the
    tree is deterministic, so encoding such a model builds the one a
    version-2 file of it holds.  Prediction does not search the tree
    ({!Ml_model.Knn} does): it stays so that the bytes, hence version
    ids, are those of every earlier build. *)

module J = Obs.Json

type t = {
  model : Ml_model.Model.t;
  space : Ml_model.Features.space;
  meta : (string * J.t) list;
      (** Provenance (seed, scale, git, creation time) — carried along,
          echoed by the server's health endpoint, never interpreted. *)
}

let format =
  {
    Prelude.Envelope.magic = "portopt-model";
    oldest = 1;
    current = 2;
    noun = "model artifact";
    kind = "artifact";
  }

(* ---- provenance ------------------------------------------------------- *)

(** Store-provenance meta fields recorded by [portopt train]: the
    digests identify exactly which programs, sampled settings and
    configurations produced the model, so a server (or a later train
    run) can tell whether a given evaluation store was built from the
    same inputs and warm-start from it.  Carried in [meta], echoed by
    the health endpoint, never interpreted by the loader. *)
let provenance ?store_dir ~programs_digest ~settings_digest ~uarchs_digest ()
    =
  [
    ( "store",
      match store_dir with None -> J.Null | Some d -> J.Str d );
    ("programs_digest", J.Str programs_digest);
    ("settings_digest", J.Str settings_digest);
    ("uarchs_digest", J.Str uarchs_digest);
  ]

(** The objective the artifact's model was trained for.  [portopt
    train] records the spec in [meta] only when it differs from the
    default — a cycles-trained artifact is byte-identical to one written
    before objectives existed — so absence (and an unparseable value
    from a foreign writer) reads as {!Objective.Spec.default}. *)
let objective t =
  match List.assoc_opt "objective" t.meta with
  | Some (J.Str s) -> (
    match Objective.Spec.of_string s with
    | Ok o -> o
    | Error _ -> Objective.Spec.default)
  | _ -> Objective.Spec.default

(* ---- encoding --------------------------------------------------------- *)

(* The payload is printed straight into one buffer by the same printer
   as [J.to_string], in the order the tree rendering always had, so the
   bytes — hence checksums, store keys and registry ids — are those of
   every earlier build.  Between feature rows, between distributions
   and before each later section, a buffer past [chunk_bytes] becomes
   the next chunk, so the payload is held about once and never joined
   ({!Prelude.Envelope.seal}). *)

let chunk_bytes = 65536

let add_int buf i = Buffer.add_string buf (string_of_int i)

let add_array buf add a =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    a;
  Buffer.add_char buf ']'

let add_floats buf a = add_array buf J.add_float a

(* Equal rows print equal bytes, and a model holds few distinct
   distribution rows ({!Ml_model.Distribution.share}): each is printed
   once, and its bytes are copied wherever it recurs. *)
let add_rows_once () =
  let printed =
    Obs.Intern.create ~equal:(fun row (r, _) -> Obs.Intern.same_floats row r)
  in
  fun buf row ->
    let h = Obs.Intern.hash_floats row in
    match Obs.Intern.find printed h row with
    | -1 ->
      let start = Buffer.length buf in
      add_floats buf row;
      let bytes = Buffer.sub buf start (Buffer.length buf - start) in
      ignore (Obs.Intern.add printed h (row, bytes))
    | i -> Buffer.add_string buf (snd (Obs.Intern.get printed i))

(* The VP-tree, shape-for-shape: a JSON list is a leaf (its row
   indices), an object is a split.  Only the tree shape is stored — the
   row data is the "features" matrix the tree indexes. *)
let rec add_index buf = function
  | Ml_model.Vptree.Leaf idxs -> add_array buf add_int idxs
  | Ml_model.Vptree.Split { vp; mu; inner; outer } ->
    Buffer.add_string buf "{\"vp\":";
    add_int buf vp;
    Buffer.add_string buf ",\"mu\":";
    J.add_float buf mu;
    Buffer.add_string buf ",\"in\":";
    add_index buf inner;
    Buffer.add_string buf ",\"out\":";
    add_index buf outer;
    Buffer.add_char buf '}'

let payload t =
  let r = Ml_model.Model.export t.model in
  let means, stds = r.Ml_model.Model.r_normaliser in
  (* Room for a chunk and the row or distribution that ends it, so the
     buffer grows only for a larger section. *)
  let buf = Buffer.create (2 * chunk_bytes) in
  let chunks = ref [] in
  (* Never inside a row: [add_rows_once] copies each row's bytes out of
     the buffer after printing it. *)
  let cut () =
    if Buffer.length buf >= chunk_bytes then begin
      chunks := Buffer.contents buf :: !chunks;
      Buffer.clear buf
    end
  in
  let lit = Buffer.add_string buf in
  lit "{\"k\":";
  add_int buf r.Ml_model.Model.r_k;
  lit ",\"beta\":";
  J.add_float buf r.Ml_model.Model.r_beta;
  lit ",\"space\":";
  J.add_string buf (Ml_model.Features.space_to_string t.space);
  lit ",\"mask\":";
  (match r.Ml_model.Model.r_mask with
  | None -> lit "null"
  | Some m ->
    add_array buf
      (fun buf b -> Buffer.add_string buf (if b then "true" else "false"))
      m);
  lit ",\"normaliser\":{\"mean\":";
  add_floats buf means;
  lit ",\"std\":";
  add_floats buf stds;
  lit "},\"features\":";
  add_array buf
    (fun buf row ->
      cut ();
      add_floats buf row)
    r.Ml_model.Model.r_features;
  lit ",\"distributions\":";
  let add_row = add_rows_once () in
  add_array buf
    (fun buf d ->
      cut ();
      add_array buf add_row d)
    r.Ml_model.Model.r_distributions;
  cut ();
  lit ",\"index\":";
  (match r.Ml_model.Model.r_index with
  | None -> lit "null"
  | Some root -> add_index buf root);
  cut ();
  lit ",\"meta\":";
  J.add buf (J.Obj t.meta);
  lit "}";
  List.rev (Buffer.contents buf :: !chunks)

(** The sealed payload [save] writes, exposed so the model registry
    can content-address an artifact (the payload's FNV-1a 64 digest is
    the version id) and write the object file itself. *)
let encode t =
  Obs.Span.with_ "artifact.write" (fun () ->
      let sealed = Prelude.Envelope.seal format (payload t) in
      Obs.Span.event "artifact.sealed"
        [
          ("bytes", J.Int sealed.Prelude.Envelope.bytes);
          ("chunks", J.Int (List.length sealed.Prelude.Envelope.chunks));
        ];
      sealed)

(** Content identity: the payload digest as 16 hex characters.  Two
    artifacts have equal [version_id] iff their payload lines are
    byte-identical — the registry's version ids and the byte-identity
    assertions both rest on this. *)
let version_id t = (Prelude.Envelope.seal format (payload t)).digest

(* Write-then-rename ({!Prelude.Envelope.write}), so a crash mid-save
   never leaves a half-written artifact under the final name. *)
let save ~path t = Prelude.Envelope.write ~path (encode t)

(* ---- decoding --------------------------------------------------------- *)

(* The payload is decoded in one pass over the text, straight into the
   model's arrays.  Malformed JSON is [J.parse]'s error; a well-formed
   document that breaks the schema raises [Bad] with the message the
   field-by-field checks have always given.  Keys may come in any order
   and unknown ones are skipped; of duplicate keys the first wins, as
   with [J.member]. *)

exception Bad of string

let need msg = function Some v -> v | None -> raise (Bad msg)
let malformed name = Printf.sprintf "missing or malformed %S field" name
let field name read c = need (malformed name) (read c)
let get name slot = need (malformed name) !slot
let skip c = ignore (J.value c)

(* Fill [slot] from the member's value unless a first occurrence did. *)
let once slot read c =
  match !slot with None -> slot := Some (read c) | Some _ -> skip c

let float_rows ~error c = J.array c (fun c -> need error (J.floats c))

let rec index_node c =
  match J.array c (fun c -> need "malformed \"index\" leaf" (J.int c)) with
  | Some idxs -> Ml_model.Vptree.Leaf idxs
  | None ->
    let vp = ref None and mu = ref None in
    let inner = ref None and outer = ref None in
    let member = function
      | "vp" -> once vp (field "vp" J.int) c
      | "mu" -> once mu (field "mu" J.float) c
      | "in" -> once inner index_node c
      | "out" -> once outer index_node c
      | _ -> skip c
    in
    if not (J.members c member) then raise (Bad "malformed \"index\" field");
    let child name slot =
      need (Printf.sprintf "missing %S field in \"index\" split" name) !slot
    in
    let vp = get "vp" vp in
    let mu = get "mu" mu in
    let inner = child "in" inner in
    let outer = child "out" outer in
    Ml_model.Vptree.Split { vp; mu; inner; outer }

let payload_of c =
  let k = ref None and beta = ref None and space = ref None in
  let mask = ref None and mean = ref None and std = ref None in
  let normaliser = ref None and features = ref None in
  let distributions = ref None and index = ref None and meta = ref None in
  let normaliser_member = function
    | "mean" -> once mean (field "mean" J.floats) c
    | "std" -> once std (field "std" J.floats) c
    | _ -> skip c
  in
  let mask_of c =
    if J.null c then None
    else
      let error = "malformed \"mask\" field" in
      Some (need error (J.array c (fun c -> need error (J.bool c))))
  in
  (* A repeated row is neither parsed nor allocated ([J.shared_floats]),
     and the rows and distributions are shared as [Model.of_parts] shares
     them, so a loaded model is laid out as the trained one was. *)
  let memo = J.rows () and sharing = Ml_model.Distribution.sharing () in
  let distributions_of c =
    let error = "malformed \"distributions\" field" in
    let row c = need error (J.shared_floats memo c) in
    J.array c (fun c ->
        Ml_model.Distribution.share sharing (need error (J.array c row)))
  in
  let member = function
    | "k" -> once k (field "k" J.int) c
    | "beta" -> once beta (field "beta" J.float) c
    | "space" -> once space (field "space" J.string) c
    | "mask" -> once mask mask_of c
    | "normaliser" ->
      once normaliser
        (fun c -> if not (J.members c normaliser_member) then skip c)
        c
    | "features" ->
      let error = malformed "features" in
      once features (field "features" (float_rows ~error)) c
    | "distributions" ->
      once distributions (field "distributions" distributions_of) c
    | "index" ->
      once index (fun c -> if J.null c then None else Some (index_node c)) c
    | "meta" ->
      once meta
        (fun c -> match J.value c with J.Obj fields -> fields | _ -> [])
        c
    | _ -> skip c
  in
  if not (J.members c member) then skip c;
  (* Checked in the order the fields have always been reported in. *)
  let r_k = get "k" k in
  let r_beta = get "beta" beta in
  let space =
    match Ml_model.Features.space_of_string (get "space" space) with
    | Ok s -> s
    | Error e -> raise (Bad e)
  in
  let r_mask = need "missing \"mask\" field" !mask in
  let () = get "normaliser" normaliser in
  let means = get "mean" mean in
  let stds = get "std" std in
  let r_features = get "features" features in
  let r_distributions = get "distributions" distributions in
  let distinct_rows, distinct_distributions =
    Ml_model.Distribution.distinct sharing
  in
  ( {
      Ml_model.Model.r_k;
      r_beta;
      r_mask;
      r_normaliser = (means, stds);
      r_features;
      r_distributions;
      (* Absent (version 1) and explicit null both mean "build it at
         encode": the build is deterministic, so the bytes are the same
         either way. *)
      r_index = Option.join !index;
    },
    space,
    Option.value ~default:[] !meta,
    [
      ( "rows",
        J.Int
          (Array.fold_left (fun n g -> n + Array.length g) 0 r_distributions)
      );
      ("distinct_rows", J.Int distinct_rows);
      ("distributions", J.Int (Array.length r_distributions));
      ("distinct_distributions", J.Int distinct_distributions);
    ] )

(* Each stage is timed for the [artifact.stages] event: the checksummed
   read, the JSON decode and [Model.import]'s checks.  The event also
   counts what the decode shared. *)
let read ~path =
  Obs.Span.with_ "artifact.read" @@ fun () ->
  let t0 = Obs.Clock.now_s () in
  match Prelude.Envelope.read format ~path with
  | Error e -> Error e
  | Ok { Prelude.Envelope.version; digest; payload } -> (
    let t1 = Obs.Clock.now_s () in
    let error e = Error (path ^ ": " ^ e) in
    match J.parse payload payload_of with
    | exception Bad m -> error m
    | Error e -> error ("payload is not valid JSON: " ^ e)
    | Ok (repr, space, meta, shared) -> (
      let t2 = Obs.Clock.now_s () in
      match Ml_model.Model.import repr with
      | Error e -> error e
      | Ok model ->
        let t3 = Obs.Clock.now_s () in
        Obs.Span.event "artifact.stages"
          (("bytes", J.Int (String.length payload))
          :: ("envelope_s", J.Float (t1 -. t0))
          :: ("decode_s", J.Float (t2 -. t1))
          :: ("import_s", J.Float (t3 -. t2))
          :: shared);
        let t = { model; space; meta } in
        (* A version-1 payload differs from what this build writes (it
           has no index), so its id is the re-encoding's digest — the id
           the file has always been served under. *)
        Ok ((if version = 1 then version_id t else digest), t)))

let load ~path = Result.map snd (read ~path)
