(** Minimal JSON values — see json.mli for the contract. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing -------------------------------------------------------- *)

(* The runtime's printf kernel, which [Printf.sprintf "%.17g"] reaches
   only after interpreting its format: the output is the same. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal form that parses back to the same float; ".0" is
   appended to integral values so the reader keeps them as floats. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then format_float "%.1f" f
  else
    let s = format_float "%.12g" f in
    if float_of_string s = f then s else format_float "%.17g" f

let add_float buf f =
  Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Str s -> add_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        add buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        add buf item)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* ---- reading --------------------------------------------------------- *)

exception Parse_error of string

type cursor = {
  text : string;
  mutable pos : int;
  mutable scratch : float array;  (** Reused by [floats]. *)
}

let fail c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

(* The next byte, or '\000' at the end of the input — callers that must
   tell the two apart check [c.pos] themselves. *)
let peek c =
  if c.pos < String.length c.text then String.unsafe_get c.text c.pos
  else '\000'

let rec skip_ws c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
    c.pos <- c.pos + 1;
    skip_ws c
  | _ -> ()

let expect c ch =
  if peek c = ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected '%c'" ch)

let keyword c k v =
  let len = String.length k in
  if c.pos + len <= String.length c.text && String.sub c.text c.pos len = k
  then begin
    c.pos <- c.pos + len;
    v
  end
  else fail c (Printf.sprintf "expected %s" k)

(* ---- numbers ---- *)

let starts_number c = match peek c with '-' | '0' .. '9' -> true | _ -> false

(* Advance over one number token; true when it is float-shaped (has a
   '.', 'e' or 'E'). *)
let scan_number c =
  let rec go float_shaped =
    match peek c with
    | '-' | '+' | '0' .. '9' ->
      c.pos <- c.pos + 1;
      go float_shaped
    | '.' | 'e' | 'E' ->
      c.pos <- c.pos + 1;
      go true
    | _ -> float_shaped
  in
  go false

let token c start = String.sub c.text start (c.pos - start)

let float_token c start =
  match float_of_string (token c start) with
  | f -> f
  | exception Failure _ -> fail c "malformed number"

(* An int-shaped token is an [Int] when it fits and a [Float] beyond;
   [number] and [number_float] are the one reading of a token. *)
let number c =
  let start = c.pos in
  if scan_number c then Float (float_token c start)
  else
    match int_of_string_opt (token c start) with
    | Some i -> Int i
    | None -> Float (float_token c start)

let number_float c =
  let start = c.pos in
  if scan_number c then float_token c start
  else
    match int_of_string_opt (token c start) with
    | Some i -> float_of_int i
    | None -> float_token c start

(* ---- strings ---- *)

let hex4 c =
  if c.pos + 4 > String.length c.text then fail c "truncated \\u escape";
  let text = String.sub c.text c.pos 4 in
  c.pos <- c.pos + 4;
  match int_of_string_opt ("0x" ^ text) with
  | Some u -> u
  | None -> fail c "malformed \\u escape"

let utf8_add buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let string_lit c =
  expect c '"';
  let n = String.length c.text in
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= n then fail c "unterminated string";
    let ch = c.text.[c.pos] in
    c.pos <- c.pos + 1;
    if ch = '"' then Buffer.contents buf
    else if ch = '\\' then begin
      if c.pos >= n then fail c "unterminated escape";
      let e = c.text.[c.pos] in
      c.pos <- c.pos + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' -> utf8_add buf (hex4 c)
      | _ -> fail c "unknown escape");
      go ()
    end
    else begin
      Buffer.add_char buf ch;
      go ()
    end
  in
  go ()

(* ---- containers: the one array grammar and the one object grammar ---- *)

let iter_array c f =
  expect c '[';
  skip_ws c;
  if peek c = ']' then c.pos <- c.pos + 1
  else begin
    f c;
    skip_ws c;
    while peek c = ',' do
      c.pos <- c.pos + 1;
      f c;
      skip_ws c
    done;
    expect c ']'
  end

let iter_object c f =
  expect c '{';
  skip_ws c;
  if peek c = '}' then c.pos <- c.pos + 1
  else begin
    let member () =
      skip_ws c;
      let k = string_lit c in
      skip_ws c;
      expect c ':';
      f k;
      skip_ws c
    in
    member ();
    while peek c = ',' do
      c.pos <- c.pos + 1;
      member ()
    done;
    expect c '}'
  end

let rec value c =
  skip_ws c;
  if c.pos >= String.length c.text then fail c "unexpected end of input";
  match peek c with
  | '{' ->
    let fields = ref [] in
    iter_object c (fun k -> fields := (k, value c) :: !fields);
    Obj (List.rev !fields)
  | '[' ->
    let items = ref [] in
    iter_array c (fun c -> items := value c :: !items);
    List (List.rev !items)
  | '"' -> Str (string_lit c)
  | 't' -> keyword c "true" (Bool true)
  | 'f' -> keyword c "false" (Bool false)
  | 'n' -> keyword c "null" Null
  | '-' | '0' .. '9' -> number c
  | ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

(* ---- typed reads: [None] leaves the cursor where it was ---- *)

let null c =
  skip_ws c;
  peek c = 'n' && keyword c "null" true

let bool c =
  skip_ws c;
  match peek c with
  | 't' -> Some (keyword c "true" true)
  | 'f' -> Some (keyword c "false" false)
  | _ -> None

let int c =
  skip_ws c;
  if not (starts_number c) then None
  else
    let start = c.pos in
    match number c with
    | Int i -> Some i
    | _ ->
      c.pos <- start;
      None

let float c =
  skip_ws c;
  if starts_number c then Some (number_float c) else None

let string c =
  skip_ws c;
  if peek c = '"' then Some (string_lit c) else None

let array c f =
  skip_ws c;
  if peek c <> '[' then None
  else begin
    let items = ref [] in
    iter_array c (fun c -> items := f c :: !items);
    Some (Array.of_list (List.rev !items))
  end

exception Not_a_number

let floats c =
  skip_ws c;
  if peek c <> '[' then None
  else begin
    let start = c.pos in
    let n = ref 0 in
    match
      iter_array c (fun c ->
          skip_ws c;
          if not (starts_number c) then raise_notrace Not_a_number;
          let f = number_float c in
          if !n = Array.length c.scratch then
            c.scratch <-
              Array.append c.scratch (Array.make (max 16 !n) 0.0);
          c.scratch.(!n) <- f;
          incr n)
    with
    | () -> Some (Array.sub c.scratch 0 !n)
    | exception Not_a_number ->
      c.pos <- start;
      None
  end

let members c f =
  skip_ws c;
  if peek c <> '{' then false
  else begin
    iter_object c f;
    true
  end

let parse text f =
  let c = { text; pos = 0; scratch = [||] } in
  match
    let v = f c in
    skip_ws c;
    if c.pos <> String.length text then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let of_string s = parse s value

(* ---- accessors ------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function List items -> Some items | _ -> None

let field name conv j =
  match Option.bind (member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %S field" name)
