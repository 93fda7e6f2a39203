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

(* Runs that need no escaping are copied whole. *)
let add_string buf s =
  Buffer.add_char buf '"';
  let clean = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !clean (i - !clean);
      clean := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring buf s !clean (String.length s - !clean);
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
  one : float array;  (** One number's value, unboxed. *)
  mutable scratch : float array;  (** Reused by [floats]. *)
}

let fail c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

(* [text.[p]] for [len = String.length text], or '\000' past the end,
   which no scanning loop accepts: callers that must tell the two apart
   check the position themselves. *)
let byte text len p = if p < len then String.unsafe_get text p else '\000'

let peek c = byte c.text (String.length c.text) c.pos

(* The position of the first non-whitespace byte at or after [p]. *)
let skip_spaces text p =
  let len = String.length text and p = ref p in
  while
    match byte text len !p with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr p
  done;
  !p

let skip_ws c = c.pos <- skip_spaces c.text c.pos

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

let is_digit = function '0' .. '9' -> true | _ -> false

(* 10^0 .. 10^22 are exact doubles: 5^22 < 2^53. *)
let exact_pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let two_53 = 1 lsl 53

(* How [scan_number] classifies a token, in the low two bits of its
   result; the token's end is the rest. *)
let stored = 0 (* float-shaped, and its value is in [dst.(i)] *)
let float_shaped = 1 (* float-shaped, for [float_of_string] *)
let int_shaped = 2 (* no '.', 'e' or 'E', for [int_of_string_opt] *)

(* The one number reader: one pass over the token at [start], which ends
   at the first byte outside [-+.0-9eE], as it always has.  A token of
   the shape -?D+(.D+)?([eE][+-]?D+)? whose digits make an integer w
   below 2^53 and whose exponent, net of the fraction digits, is some e
   in [-22, 22] has the value w * 10^e.  Both factors are exact doubles,
   so one IEEE multiply (or a divide by 10^-e) rounds the exact value
   once, to the nearest double: the bits [float_of_string]'s correctly
   rounded [strtod] returns (Clinger, PLDI 1990).  Such a token is
   [stored]; any other is left to its classic reading. *)
let scan_number text start (dst : float array) i =
  let len = String.length text in
  let p = ref start in
  let ch = ref (byte text len start) in
  let neg = !ch = '-' in
  if neg then begin
    incr p;
    ch := byte text len !p
  end;
  (* [w] stays below 2^53, so [w * 10 + 9] cannot overflow. *)
  let w = ref 0 and fits = ref true and frac = ref 0 and exp = ref 0 in
  let first = !p in
  while is_digit !ch do
    let w' = (!w * 10) + Char.code !ch - 48 in
    if w' < two_53 then w := w' else fits := false;
    incr p;
    ch := byte text len !p
  done;
  let shaped = ref (!p > first) and dotted = ref false in
  if !shaped && !ch = '.' then begin
    dotted := true;
    incr p;
    ch := byte text len !p;
    let first = !p in
    while is_digit !ch do
      let w' = (!w * 10) + Char.code !ch - 48 in
      if w' < two_53 then w := w' else fits := false;
      incr p;
      ch := byte text len !p
    done;
    frac := !p - first;
    shaped := !p > first
  end;
  if !shaped && (!ch = 'e' || !ch = 'E') then begin
    dotted := true;
    incr p;
    ch := byte text len !p;
    let eneg = !ch = '-' in
    if eneg || !ch = '+' then begin
      incr p;
      ch := byte text len !p
    end;
    let first = !p in
    while is_digit !ch do
      (* Past 10^8, no fraction this process can hold brings the net
         exponent back to +-22: decline. *)
      if !exp < 100_000_000 then exp := (!exp * 10) + Char.code !ch - 48
      else fits := false;
      incr p;
      ch := byte text len !p
    done;
    shaped := !p > first;
    if eneg then exp := - !exp
  end;
  (* The rest of the token: any byte left here breaks the shape. *)
  let rest = !p in
  while
    match !ch with
    | '-' | '+' | '0' .. '9' -> true
    | '.' | 'e' | 'E' ->
      dotted := true;
      true
    | _ -> false
  do
    incr p;
    ch := byte text len !p
  done;
  let e = !exp - !frac in
  if not !dotted then (!p lsl 2) lor int_shaped
  else if !shaped && !p = rest && !fits && e >= -22 && e <= 22 then begin
    let m = float_of_int !w in
    let v = if e >= 0 then m *. exact_pow10.(e) else m /. exact_pow10.(-e) in
    dst.(i) <- (if neg then -.v else v);
    (!p lsl 2) lor stored
  end
  else (!p lsl 2) lor float_shaped

let token c start = String.sub c.text start (c.pos - start)

let float_token c start =
  match float_of_string (token c start) with
  | f -> f
  | exception Failure _ -> fail c "malformed number"

(* Finish the reading [scan_number] began at [start] with result [r]:
   the value goes to [dst.(i)], the cursor past the token, and an
   int-shaped token that fits an int is also returned as one. *)
let finish_number c start r dst i =
  c.pos <- r lsr 2;
  let shape = r land 3 in
  if shape = stored then None
  else if shape = float_shaped then begin
    dst.(i) <- float_token c start;
    None
  end
  else
    match int_of_string_opt (token c start) with
    | Some n ->
      dst.(i) <- float_of_int n;
      Some n
    | None ->
      dst.(i) <- float_token c start;
      None

let number_into c dst i =
  let start = c.pos in
  finish_number c start (scan_number c.text start dst i) dst i

(* An int-shaped token is an [Int] when it fits and a [Float] beyond;
   [number] and [number_float] are the one reading of a token. *)
let number c =
  match number_into c c.one 0 with
  | Some n -> Int n
  | None -> Float c.one.(0)

let number_float c =
  ignore (number_into c c.one 0);
  c.one.(0)

(* ---- strings ---- *)

let hex_digit = function
  | '0' .. '9' as h -> Char.code h - 48
  | 'a' .. 'f' as h -> Char.code h - 87
  | 'A' .. 'F' as h -> Char.code h - 55
  | _ -> -1

(* The four hex digits after a "\u"; the cursor moves past them. *)
let hex4 c =
  if c.pos + 4 > String.length c.text then fail c "truncated \\u escape";
  let u = ref 0 in
  for k = 0 to 3 do
    let d = hex_digit c.text.[c.pos + k] in
    u := if d < 0 || !u < 0 then -1 else (!u lsl 4) lor d
  done;
  c.pos <- c.pos + 4;
  if !u < 0 then fail c "malformed \\u escape" else !u

(* A "\u" escape's code point: a UTF-16 high surrogate must be followed
   by a "\u" low surrogate, and the pair is one code point. *)
let code_point c =
  let u = hex4 c in
  if u < 0xD800 || u > 0xDFFF then u
  else if
    u <= 0xDBFF
    && c.pos + 2 <= String.length c.text
    && c.text.[c.pos] = '\\'
    && c.text.[c.pos + 1] = 'u'
  then begin
    c.pos <- c.pos + 2;
    let lo = hex4 c in
    if lo < 0xDC00 || lo > 0xDFFF then
      fail c "unpaired surrogate in \\u escape";
    0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else fail c "unpaired surrogate in \\u escape"

let utf8_add buf u =
  let cont shift =
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr shift) land 0x3F)))
  in
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    cont 0
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    cont 6;
    cont 0
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    cont 12;
    cont 6;
    cont 0
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
      | 'u' -> utf8_add buf (code_point c)
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

(* [iter_array]'s grammar in one loop over the text: a number token goes
   straight into [scratch]; anything else as an element leaves the
   cursor where it was. *)
let floats c =
  skip_ws c;
  if peek c <> '[' then None
  else begin
    let text = c.text in
    let len = String.length text and start = c.pos in
    let p = ref (skip_spaces text (start + 1)) in
    let n = ref 0 and numbers = ref true in
    let reading = ref (byte text len !p <> ']') in
    if not !reading then incr p;
    while !reading do
      p := skip_spaces text !p;
      match byte text len !p with
      | '-' | '0' .. '9' ->
        if !n = Array.length c.scratch then
          c.scratch <- Array.append c.scratch (Array.make (max 16 !n) 0.0);
        let r = scan_number text !p c.scratch !n in
        if r land 3 <> stored then
          ignore (finish_number c !p r c.scratch !n);
        incr n;
        p := skip_spaces text (r lsr 2);
        (match byte text len !p with
        | ',' -> incr p
        | ']' ->
          incr p;
          reading := false
        | _ ->
          c.pos <- !p;
          fail c "expected ']'")
      | _ ->
        numbers := false;
        reading := false
    done;
    if not !numbers then begin
      c.pos <- start;
      None
    end
    else begin
      c.pos <- !p;
      Some (Array.sub c.scratch 0 !n)
    end
  end

(* ---- shared rows ---- *)

(* A row read once: its bytes [text.[r_first .. r_stop - 1]] and its
   value. *)
type row = { r_first : int; r_stop : int; r_value : float array }

type rows = {
  mutable text : string;  (** The document every row points into. *)
  mutable start : int;  (** The bytes looked up: [text.[start .. stop - 1]]. *)
  mutable stop : int;
  table : (rows, row) Intern.t;
}

let same_bytes m r =
  let n = m.stop - m.start in
  r.r_stop - r.r_first = n
  &&
  let i = ref 0 in
  while
    !i < n
    && String.unsafe_get m.text (m.start + !i)
       = String.unsafe_get m.text (r.r_first + !i)
  do
    incr i
  done;
  !i = n

let rows () =
  { text = ""; start = 0; stop = 0; table = Intern.create ~equal:same_bytes }

(* The row's bytes run from its '[' to the first ']' over number, comma
   and space bytes only, hashed (FNV-1a) on the way; any other byte
   leaves the reading to [floats].  A row enters the memo only once
   [floats] has read exactly those bytes, and what [floats] reads is a
   function of them alone, so a hit returns what it would return and
   leaves the cursor where it would.  Each byte is scanned at most
   once per call, and a lookup makes at most [Intern]'s bounded number
   of comparisons. *)
let shared_floats m c =
  skip_ws c;
  if peek c <> '[' then None
  else begin
    let text = c.text in
    if m.text != text then
      if Intern.length m.table = 0 then m.text <- text
      else invalid_arg "Json.shared_floats: a memo serves one document";
    let len = String.length text and start = c.pos in
    let p = ref (start + 1) and h = ref 0x4bf29ce484222325 in
    while
      match byte text len !p with
      | ( '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' | ',' | ' ' | '\t' | '\n'
        | '\r' ) as ch ->
        h := (!h lxor Char.code ch) * 0x100000001b3;
        true
      | _ -> false
    do
      incr p
    done;
    if byte text len !p <> ']' then floats c
    else begin
      let stop = !p + 1 in
      m.start <- start;
      m.stop <- stop;
      match Intern.find m.table !h m with
      | -1 ->
        let read = floats c in
        (match read with
        | Some r_value when c.pos = stop ->
          ignore
            (Intern.add m.table !h { r_first = start; r_stop = stop; r_value })
        | _ -> ());
        read
      | i ->
        c.pos <- stop;
        Some (Intern.get m.table i).r_value
    end
  end

let members c f =
  skip_ws c;
  if peek c <> '{' then false
  else begin
    iter_object c f;
    true
  end

let parse text f =
  let c = { text; pos = 0; one = [| 0.0 |]; scratch = [||] } in
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
