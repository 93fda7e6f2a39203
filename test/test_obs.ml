(* Tests for the telemetry layer: JSON round-trips, counter atomicity
   under the domain pool, span nesting in trace files, trace-file
   validation, and the bit-identity guarantee — instrumentation must
   never change computed results. *)

let check = Alcotest.check

(* ---- Json -------------------------------------------------------------- *)

let round_trip v =
  let s = Obs.Json.to_string v in
  match Obs.Json.of_string s with
  | Ok v' -> check Alcotest.bool (Printf.sprintf "round-trip %s" s) true (v = v')
  | Error e -> Alcotest.failf "reparse of %s failed: %s" s e

let test_json_round_trip () =
  List.iter round_trip
    [
      Obs.Json.Null;
      Obs.Json.Bool true;
      Obs.Json.Bool false;
      Obs.Json.Int 0;
      Obs.Json.Int (-42);
      Obs.Json.Int max_int;
      Obs.Json.Float 0.0;
      Obs.Json.Float 1.5;
      Obs.Json.Float 3.14159265358979312;
      Obs.Json.Float 1e-300;
      Obs.Json.Float 1785955230.1727901;
      Obs.Json.Str "";
      Obs.Json.Str "plain";
      Obs.Json.Str "quotes \" backslash \\ newline \n tab \t";
      Obs.Json.Str "unicode: \xc3\xa9\xe2\x82\xac";
      Obs.Json.List [];
      Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Str "two"; Obs.Json.Null ];
      Obs.Json.Obj [];
      Obs.Json.Obj
        [
          ("a", Obs.Json.Int 1);
          ("nested", Obs.Json.Obj [ ("b", Obs.Json.List [ Obs.Json.Bool false ]) ]);
        ];
    ]

let test_json_parse_forms () =
  (* Numbers without . / e / E parse as Int, everything else as Float. *)
  check Alcotest.bool "int form" true
    (Obs.Json.of_string "12" = Ok (Obs.Json.Int 12));
  check Alcotest.bool "float form" true
    (Obs.Json.of_string "1.5e3" = Ok (Obs.Json.Float 1500.0));
  check Alcotest.bool "unicode escape" true
    (Obs.Json.of_string "\"\\u0041\"" = Ok (Obs.Json.Str "A"));
  (* Non-finite floats print as null (JSON has no representation). *)
  check Alcotest.string "nan is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  check Alcotest.string "inf is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity));
  (match Obs.Json.of_string "{\"a\":" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object should not parse");
  match Obs.Json.of_string "[1, 2] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage should not parse"

(* The printer's reference: the [Printf] form the float printer had
   before it called the runtime's formatter directly. *)
let printf_float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let test_json_float_printer_matches_printf () =
  let rng = Random.State.make [| 2009 |] in
  let special =
    [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity;
      Float.min_float; -.Float.min_float; Float.max_float;
      Float.epsilon; 5e-324; -5e-324; 2.2250738585072009e-308;
      1e16; -1e16; 9999999999999998.0; 1e16 -. 2.0; 1e16 +. 2.0;
      0.1; 0.1 +. 0.2; 1.0 /. 3.0; 2.0 /. 3.0; 1785955230.1727901;
      123456789012345678.0; 1e300; 1e-300; 0.30000000000000004 ]
  in
  let random_bits () = Int64.float_of_bits (Random.State.bits64 rng) in
  let subnormal () = ldexp (Random.State.float rng 1.0) (-1023 - Random.State.int rng 52) in
  let near_1e16 () = 1e16 +. float_of_int (Random.State.int rng 64 - 32) in
  let seventeen () = Random.State.float rng 1.0 *. 10.0 ** float_of_int (Random.State.int rng 40 - 20) in
  let generated =
    List.init 20_000 (fun i ->
        match i mod 4 with
        | 0 -> random_bits ()
        | 1 -> subnormal ()
        | 2 -> near_1e16 ()
        | _ -> seventeen ())
  in
  List.iter
    (fun f ->
      let printed = Obs.Json.to_string (Obs.Json.Float f) in
      if printed <> printf_float_repr f then
        Alcotest.failf "%h prints %s, Printf form %s" f printed (printf_float_repr f);
      let buf = Buffer.create 32 in
      Obs.Json.add_float buf f;
      if Buffer.contents buf <> printed then
        Alcotest.failf "%h: add_float %s, to_string %s" f (Buffer.contents buf) printed;
      if Float.is_finite f && float_of_string printed <> f then
        Alcotest.failf "%h does not round-trip through %s" f printed)
    (special @ generated)

(* The pull reader is the tree's lexer: typed reads agree with the tree,
   a mismatch leaves the cursor in place, and malformed input fails with
   the tree reader's messages. *)
let test_json_pull_reader () =
  let module J = Obs.Json in
  let doc =
    {| { "a" : [ 1 , -0 , 2.5e1 , 1e400 , 123456789012345678901 ] , "b" : "x\u0041" , "a" : null } |}
  in
  let tree = J.of_string doc in
  check Alcotest.bool "of_string is parse value" true (J.parse doc J.value = tree);
  let read c =
    let seen = ref [] in
    let member k =
      let v =
        match J.floats c with
        | Some a -> `Floats a
        | None -> `Value (J.value c)
      in
      seen := (k, v) :: !seen
    in
    let is_object = J.members c member in
    (is_object, List.rev !seen)
  in
  let floats =
    match tree with
    | Ok t ->
      Array.of_list
        (List.filter_map J.to_float
           (Option.get (Option.bind (J.member "a" t) J.to_list)))
    | Error e -> Alcotest.fail e
  in
  let bits = Array.map Int64.bits_of_float in
  (match J.parse doc read with
  | Ok
      ( true,
        [ ("a", `Floats pulled); ("b", `Value (J.Str "xA")); ("a", `Value J.Null) ]
      ) ->
    (* Bit for bit: -0 is an int token, so it reads as +0.0. *)
    check Alcotest.(array int64) "floats as to_float reads them" (bits floats)
      (bits pulled);
    check Alcotest.bool "an int-shaped -0 reads as +0.0" false
      (Float.sign_bit pulled.(1))
  | _ -> Alcotest.fail "members in order, duplicates included");
  let big = "123456789012345678901" in
  check Alcotest.bool "an int that does not fit is a float" true
    (J.parse big (fun c ->
         let i = J.int c in
         (i, J.float c))
    = Ok (None, Some (float_of_string big)));
  check Alcotest.bool "a mismatch leaves the cursor in place" true
    (J.parse {| "s"|} (fun c ->
         let i = J.int c in
         let f = J.float c in
         let a = J.floats c in
         let n = J.null c in
         let b = J.bool c in
         (i, f, a, n, b, J.string c))
    = Ok (None, None, None, false, None, Some "s"));
  check Alcotest.bool "a non-number element leaves the array unread" true
    (J.parse {|[1,"x"]|} (fun c ->
         let a = J.floats c in
         (a, J.value c))
    = Ok (None, J.List [ J.Int 1; J.Str "x" ]));
  check Alcotest.bool "typed arrays" true
    (J.parse "[true,false]" (fun c -> J.array c (fun c -> Option.get (J.bool c)))
    = Ok (Some [| true; false |]));
  List.iter
    (fun (bad, msg) ->
      check
        Alcotest.(result reject string)
        (Printf.sprintf "%S" bad) (Error msg) (J.of_string bad);
      check
        Alcotest.(result reject string)
        (Printf.sprintf "%S as floats" bad) (Error msg)
        (Result.map ignore (J.parse bad J.floats)))
    [
      ("[1,2", "expected ']' at offset 4");
      ("[1-2]", "malformed number at offset 4");
    ];
  List.iter
    (fun (bad, msg) ->
      check
        Alcotest.(result reject string)
        (Printf.sprintf "%S" bad) (Error msg) (J.of_string bad))
    [
      ("[1,]", "unexpected ']' at offset 3");
      ({|{"a":|}, "unexpected end of input at offset 5");
      ("[1, 2] trailing", "trailing garbage at offset 7");
      ({|"\q"|}, "unknown escape at offset 3");
      ("nul", "expected null at offset 0");
      ("", "unexpected end of input at offset 0");
      ({|{"a" 1}|}, "expected ':' at offset 5");
    ]

(* A \u escape takes exactly four hex digits, and a UTF-16 surrogate
   pair is one code point: Python's [json.dumps] sends U+1F600 as the
   escapes of d83d and de00, which must read as the UTF-8 bytes
   f0 9f 98 80.  A lone surrogate has no UTF-8 form and is a parse
   error. *)
let test_json_unicode_escapes () =
  let module J = Obs.Json in
  (* A JSON string literal of [parts], where [u "d83d"] is that escape. *)
  let lit parts = "\"" ^ String.concat "" parts in
  let u hex = "\\" ^ "u" ^ hex in
  let escape_error what at =
    Error (Printf.sprintf "%s \\u escape at offset %d" what at)
  in
  List.iter
    (fun (text, expected) ->
      check
        Alcotest.(result string string)
        (Printf.sprintf "%S" text) expected
        (Result.map
           (function J.Str s -> s | v -> J.to_string v)
           (J.of_string text)))
    [
      (lit [ u "0041"; u "00e9"; u "00E9"; u "20ac"; "\"" ],
       Ok "A\xc3\xa9\xc3\xa9\xe2\x82\xac");
      (lit [ u "d83d"; u "de00"; "\"" ], Ok "\xf0\x9f\x98\x80");
      (lit [ u "D83D"; u "DE00"; "!\"" ], Ok "\xf0\x9f\x98\x80!");
      (lit [ u "dbff"; u "dfff"; "\"" ], Ok "\xf4\x8f\xbf\xbf");
      (lit [ u "d800"; u "dc00"; "\"" ], Ok "\xf0\x90\x80\x80");
      (lit [ u "1_23"; "\"" ], escape_error "malformed" 7);
      (lit [ u "-123"; "\"" ], escape_error "malformed" 7);
      (lit [ u "12\"}" ], escape_error "malformed" 7);
      (lit [ u "12" ], escape_error "truncated" 3);
      (lit [ u "d83d"; "\"" ], escape_error "unpaired surrogate in" 7);
      (lit [ u "d83d"; "x\"" ], escape_error "unpaired surrogate in" 7);
      (lit [ u "d83d"; u "0041"; "\"" ], escape_error "unpaired surrogate in" 13);
      (lit [ u "d83d"; u "d83d"; "\"" ], escape_error "unpaired surrogate in" 13);
      (lit [ u "de00"; "\"" ], escape_error "unpaired surrogate in" 7);
      (lit [ u "d83d"; u "12" ], escape_error "truncated" 9);
    ];
  (* The printer leaves such a string unescaped; it reads back as itself. *)
  let s = "\xf0\x9f\x98\x80 \xf4\x8f\xbf\xbf" in
  check Alcotest.bool "4-byte UTF-8 round-trips" true
    (J.of_string (J.to_string (J.Str s)) = Ok (J.Str s))

(* The escaper before it copied clean runs whole: one byte at a time. *)
let add_string_bytewise buf s =
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

let test_json_add_string_matches_bytewise () =
  let rng = Random.State.make [| 2019 |] in
  let render add s =
    let buf = Buffer.create 64 in
    add buf s;
    Buffer.contents buf
  in
  (* All 256 byte values, with clean runs of every length between the
     bytes that need escaping. *)
  let random_string () =
    let clean_bias = Random.State.int rng 4 in
    String.init (Random.State.int rng 96) (fun _ ->
        if Random.State.int rng 4 < clean_bias then
          Char.chr (0x20 + Random.State.int rng 0x60)
        else Char.chr (Random.State.int rng 256))
  in
  List.iter
    (fun s ->
      let expected = render add_string_bytewise s in
      let got = render Obs.Json.add_string s in
      if got <> expected then
        Alcotest.failf "add_string %S: %S, byte by byte %S" s got expected;
      if Obs.Json.to_string (Obs.Json.Str s) <> expected then
        Alcotest.failf "to_string %S differs from the bytewise escaper" s)
    ("" :: String.init 256 Char.chr :: String.make 369 'x' :: "\"\\\n\001"
    :: List.init 20_000 (fun _ -> random_string ()))

(* The reader's reference: [float_of_string] on a float-shaped token; on
   an int-shaped one [int_of_string_opt] first, so "-0" is +0.0. *)
let reference_float token =
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token then
    float_of_string token
  else
    match int_of_string_opt token with
    | Some i -> float_of_int i
    | None -> float_of_string token

(* The edges of the exact path: 2^53 in the digits, 10^+-22 in the net
   exponent, signed zeros, and tokens only the fallback reads. *)
let number_boundaries =
  [ "0.0"; "-0.0"; "0.000"; "-0e0"; "0e-30"; "1.0"; "-1.0"; "1."; "1.e5";
    "-.5"; "01.5"; "00.000123"; "1e22"; "1e23"; "1e-22"; "1e-23"; "1E+22";
    "1e+023"; "0.1e23"; "0.1e-21"; "10e21"; "1.0e22"; "123.45e-20";
    "123.45e-21"; "12345e-27"; "9007199254740991e0"; "9007199254740992e0";
    "9007199254740993e0"; "900719925474099.1"; "900719925474099.2";
    "9007199254740991e22"; "9007199254740991e-22"; "9007199254740991e23";
    "9007199254740991e-23"; "-9007199254740991.0e-1"; "4503599627370497.5";
    "1e400"; "-1e400"; "1e-400"; "2.2250738585072011e-308"; "4.9e-324";
    "1.7976931348623157e308"; "0.30000000000000004";
    "1e0000000000000000022"; "1e100000000000"; "123456789012345678901";
    "-9223372036854775808"; "4611686018427387903"; "4611686018427387904";
    "-0"; "12"; "007" ]

(* Decimals in every shape the reader meets: 1-20 significant digits
   after 0-3 leading zeros, 0-25 fraction digits, and an e or E
   exponent from -30 to 30, with or without a sign or a leading zero. *)
let random_decimal rng buf =
  let int n = Random.State.int rng n in
  Buffer.clear buf;
  if Random.State.bool rng then Buffer.add_char buf '-';
  let zeros = int 4 in
  let nd = zeros + 1 + int 20 and frac = int 26 in
  if frac >= nd then begin
    Buffer.add_string buf "0.";
    Buffer.add_string buf (String.make (frac - nd) '0')
  end;
  for k = 0 to nd - 1 do
    if frac < nd && k = nd - frac then Buffer.add_char buf '.';
    let d = if k < zeros then 0 else if k = zeros then 1 + int 9 else int 10 in
    Buffer.add_char buf (Char.chr (48 + d))
  done;
  if int 3 > 0 then begin
    Buffer.add_char buf (if Random.State.bool rng then 'e' else 'E');
    let e = int 61 - 30 in
    if e < 0 then Buffer.add_char buf '-'
    else if Random.State.bool rng then Buffer.add_char buf '+';
    if int 4 = 0 then Buffer.add_char buf '0';
    Buffer.add_string buf (string_of_int (abs e))
  end;
  Buffer.contents buf

(* The one number reader against [float_of_string], bit for bit, on a
   million seeded tokens: [add_float] renderings of random bit patterns
   and generated decimals, read through [floats], and some of them
   through the tree and [float] too. *)
let test_json_number_reader_exact () =
  let module J = Obs.Json in
  let rng = Random.State.make [| 1990 |] in
  let rec finite () =
    let f = Int64.float_of_bits (Random.State.bits64 rng) in
    if Float.is_finite f then f else finite ()
  in
  let buf = Buffer.create 64 in
  let printed () =
    Buffer.clear buf;
    J.add_float buf (finite ());
    Buffer.contents buf
  in
  let bits = Int64.bits_of_float in
  let total = ref 0 in
  let read_batch ~tree tokens =
    let expected = Array.map reference_float tokens in
    let same what i got =
      if bits got <> bits expected.(i) then
        Alcotest.failf "%s %s: read %h, float_of_string %h" what tokens.(i)
          got expected.(i)
    in
    let doc = "[" ^ String.concat "," (Array.to_list tokens) ^ "]" in
    (match J.parse doc J.floats with
    | Ok (Some a) -> Array.iteri (same "floats") a
    | _ -> Alcotest.fail "floats refused a batch of numbers");
    if tree then (
      match J.of_string doc with
      | Ok (J.List items) ->
        List.iteri (fun i v -> same "tree" i (Option.get (J.to_float v))) items
      | _ -> Alcotest.fail "the tree refused a batch of numbers");
    Array.iteri
      (fun i t ->
        if i mod 64 = 0 then
          match J.parse t J.float with
          | Ok (Some f) -> same "float" i f
          | _ -> Alcotest.failf "float refused %s" t)
      tokens;
    total := !total + Array.length tokens
  in
  read_batch ~tree:true (Array.of_list number_boundaries);
  for b = 0 to 19 do
    read_batch ~tree:(b mod 4 = 0)
      (Array.init 50_000 (fun i ->
           if (b + i) mod 5 = 0 then printed () else random_decimal rng buf))
  done;
  check Alcotest.bool "at least a million tokens" true (!total >= 1_000_000)

(* A malformed token fails where it ends, with the message it always
   had, whichever reader meets it; "1." is still 1.0. *)
let test_json_malformed_numbers () =
  let module J = Obs.Json in
  List.iter
    (fun token ->
      let n = String.length token in
      let error at = Error (Printf.sprintf "malformed number at offset %d" at) in
      let result = Alcotest.(result unit string) in
      check result token (error n) (Result.map ignore (J.of_string token));
      check result (token ^ " as float") (error n)
        (Result.map ignore (J.parse token J.float));
      check result
        (Printf.sprintf "[ %s] as floats" token)
        (error (n + 2))
        (Result.map ignore (J.parse ("[ " ^ token ^ "]") J.floats)))
    [ "1.5.3"; "1e"; "1.5-2"; "-"; "--1"; "1e+"; "1.5e3.2"; "0-"; "1+2";
      "9007199254740991e22e"; "1.0.0" ];
  check Alcotest.bool "1. reads as 1.0" true
    (J.of_string "1." = Ok (J.Float 1.0)
    && J.parse "[1.]" J.floats = Ok (Some [| 1.0 |]))

(* [floats] reads arrays that mix exact-path tokens, tokens it leaves to
   [float_of_string] and int-shaped ones, with whitespace between. *)
let test_json_floats_mixed_tokens () =
  let module J = Obs.Json in
  let doc =
    "[ 0.5 ,\t0.30000000000000004,\n-0.0 , 12 ,1e400, \
     123456789012345678901 , 2.5e-3\r,1.5e22,1e23,-0 ,1. ,4.9e-324 ]"
  in
  let tree =
    match J.of_string doc with
    | Ok (J.List items) ->
      Array.of_list (List.map (fun v -> Option.get (J.to_float v)) items)
    | _ -> Alcotest.fail "tree refused the document"
  in
  let bits = Array.map Int64.bits_of_float in
  (match J.parse doc J.floats with
  | Ok (Some a) ->
    check Alcotest.(array int64) "floats = the tree, bit for bit" (bits tree)
      (bits a);
    check Alcotest.bool "-0.0 keeps its sign" true (Float.sign_bit a.(2));
    check Alcotest.bool "an int-shaped -0 is +0.0" false (Float.sign_bit a.(9))
  | _ -> Alcotest.fail "floats refused the document");
  check Alcotest.bool "an empty array" true
    (J.parse "[ \n ]" J.floats = Ok (Some [||]));
  check Alcotest.bool "a string after declined tokens leaves the array" true
    (J.parse {|[0.1, 1e23 ,"x"]|} (fun c ->
         let a = J.floats c in
         (a, J.value c))
    = Ok (None, J.List [ J.Float 0.1; J.Float 1e23; J.Str "x" ]));
  List.iter
    (fun (bad, msg) ->
      check
        Alcotest.(result reject string)
        (Printf.sprintf "%S as floats" bad) (Error msg)
        (Result.map ignore (J.parse bad J.floats)))
    [
      ("[0.5 1.5]", "expected ']' at offset 5");
      ("[0.5, 1e23", "expected ']' at offset 10");
      ("[1e23,", "trailing garbage at offset 0");
    ]

(* [shared_floats] answers as [floats] does, bit for bit, on a document
   of random rows drawn from a small alphabet, so that most rows repeat
   and are returned from the memo, and repeated rows are one array. *)
let test_json_shared_floats_match_floats () =
  let module J = Obs.Json in
  let rng = Random.State.make [| 2009 |] in
  let tokens =
    [| "0.0"; "1.0"; "0.5"; "0.25"; "-0.0"; "1"; "1e0"; "0.1";
       "0.30000000000000004"; "2.5e-3"; "1e23"; "-7" |]
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  (* One row in sixteen is spaced out, so the same values also come
     written in other bytes. *)
  let row () =
    let sep = if Random.State.int rng 16 = 0 then " ,\n " else "," in
    List.init (Random.State.int rng 4) (fun _ -> pick tokens)
    |> String.concat sep
    |> Printf.sprintf "[%s]"
  in
  let rows = List.init 100_000 (fun _ -> row ()) in
  let doc = "[" ^ String.concat "," rows ^ "]" in
  let read f = J.parse doc (fun c -> J.array c (fun c -> Option.get (f c))) in
  let memo = J.rows () in
  match (read J.floats, read (J.shared_floats memo)) with
  | Ok (Some plain), Ok (Some shared) ->
    let bits = Array.map (Array.map Int64.bits_of_float) in
    check Alcotest.(array (array int64)) "shared_floats = floats, bit for bit"
      (bits plain) (bits shared);
    let first = Hashtbl.create 4096 in
    List.iteri
      (fun i text ->
        match Hashtbl.find_opt first text with
        | None -> Hashtbl.add first text shared.(i)
        | Some a ->
          if a != shared.(i) then
            Alcotest.failf "row %d (%s) is not the array read before" i text)
      rows;
    check Alcotest.bool "most rows repeat" true
      (Hashtbl.length first * 10 < List.length rows)
  | _ -> Alcotest.fail "a reader refused the document"

(* On malformed input the memo gives [floats]'s answer, message and
   offset included, also when it already holds a prefix of the bytes.
   The decoder reads any element [floats] declines as a tree value. *)
let test_json_shared_floats_keep_errors () =
  let module J = Obs.Json in
  let read reader doc =
    J.parse doc (fun c ->
        J.array c (fun c ->
            match reader c with
            | Some a -> `Row (Array.map Int64.bits_of_float a)
            | None -> `Other (J.value c)))
  in
  List.iter
    (fun (what, doc, errs) ->
      let memo = J.rows () in
      let plain = read J.floats doc in
      check Alcotest.bool (what ^ ": same answer") true
        (plain = read (J.shared_floats memo) doc);
      check Alcotest.bool (what ^ ": an error") errs (Result.is_error plain))
    [
      ("a repeat of a declined row",
       {|[[2,"a"],[0.5],[2,"a"],[0.5],[2,"a"}]|}, true);
      ("a repeat of an empty element", "[[1,,2],[1,,2]]", true);
      ("a repeat of a malformed number", "[[1e5,1.5e],[1e5,1.5e]]", true);
      ("a nested row", "[[1,2],[1,[2]]]", false);
      ("a nested row, then a bad one", "[[1,[2]],[1,[2]}]", true);
      ("a truncated row", "[[0.5,1.0],[0.5,1.0", true);
      ("a truncated repeat", "[[0.5,1.0],[0.5,1.0],[0.5,1.", true);
      ("trailing garbage", "[[0.5,1.0],[0.5,1.0]]x", true);
      ("garbage after a repeat", "[[0.5,1.0],[0.5,1.0]x]", true);
      ("rows of spaces", "[[ 1 , 2 ],[ 1 , 2 ],[ 1 2 ]]", true);
    ];
  let memo = J.rows () in
  ignore (J.parse "[1]" (J.shared_floats memo));
  Alcotest.check_raises "a memo serves one document"
    (Invalid_argument "Json.shared_floats: a memo serves one document")
    (fun () -> ignore (J.parse "[2]" (J.shared_floats memo)))

(* However keys collide, a lookup makes a bounded number of equality
   tests, and a value it finds is one that equals the key: with every
   hash the same, 20,000 distinct values cost at most 16 tests a
   lookup, and the ones beyond the probe window are added again rather
   than found wrong. *)
let test_intern_bounds_collisions () =
  let module I = Obs.Intern in
  let tests = ref 0 in
  let t =
    I.create ~equal:(fun k v ->
        incr tests;
        k = v)
  in
  let worst = ref 0 in
  for v = 0 to 19_999 do
    tests := 0;
    let i = I.find t 7 v in
    if i >= 0 then Alcotest.failf "%d found before it was added" v;
    worst := max !worst !tests;
    ignore (I.add t 7 v)
  done;
  check Alcotest.bool "at most 16 tests a lookup" true (!worst <= 16);
  for v = 0 to 19_999 do
    let i = I.find t 7 v in
    if i >= 0 && I.get t i <> v then Alcotest.failf "%d found as another" v
  done;
  check Alcotest.int "every value kept, in order" 20_000 (I.length t);
  check Alcotest.int "the first values are found" 0 (I.find t 7 0)

(* ---- Metrics under the domain pool ------------------------------------- *)

let with_pool jobs f =
  let pool = Prelude.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Prelude.Pool.shutdown pool) (fun () -> f pool)

let test_counter_atomic_under_pool () =
  (* 4 domains hammering one counter: every increment must land.  The
     registry is process-wide and never resets, so measure the delta. *)
  let c = Obs.Metrics.counter "test.obs.atomic" in
  let h = Obs.Metrics.hist "test.obs.hist" in
  let before = Obs.Metrics.value c in
  let hn = Obs.Metrics.hist_count h in
  let hs = Obs.Metrics.hist_sum h in
  let n = 10_000 in
  let _ =
    with_pool 4 (fun pool ->
        Prelude.Pool.init pool n (fun i ->
            Obs.Metrics.add c 1;
            Obs.Metrics.observe h 0.5;
            i))
  in
  check Alcotest.int "all increments landed" (before + n) (Obs.Metrics.value c);
  check Alcotest.int "all observations landed" (hn + n)
    (Obs.Metrics.hist_count h);
  check (Alcotest.float 1e-6) "sum exact" (hs +. (0.5 *. float_of_int n))
    (Obs.Metrics.hist_sum h)

let test_metrics_kind_mismatch () =
  let _ = Obs.Metrics.counter "test.obs.kind" in
  match Obs.Metrics.gauge "test.obs.kind" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reusing a counter name as a gauge should raise"

let test_gauge_no_torn_reads () =
  (* Two domains flip the gauge between two doubles whose halves all
     differ while two more read it flat out: every read must be one of
     the written values bit-for-bit — a torn read would mix halves and
     produce a third value. *)
  let g = Obs.Metrics.gauge "test.obs.torn" in
  let a = Int64.float_of_bits 0x0102030405060708L in
  let b = Int64.float_of_bits 0x4807060504030201L in
  Obs.Metrics.set g a;
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let writer v =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Obs.Metrics.set g v
        done)
  in
  let reader () =
    Domain.spawn (fun () ->
        for _ = 1 to 200_000 do
          let v = Obs.Metrics.gauge_value g in
          if not (v = a || v = b) then Atomic.incr torn
        done)
  in
  let writers = [ writer a; writer b ] in
  let readers = [ reader (); reader () ] in
  List.iter Domain.join readers;
  Atomic.set stop true;
  List.iter Domain.join writers;
  check Alcotest.int "no torn reads" 0 (Atomic.get torn);
  check Alcotest.bool "last write visible" true
    (let v = Obs.Metrics.gauge_value g in
     v = a || v = b)

(* ---- histogram buckets and quantiles ----------------------------------- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let check_contains ~msg needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: %S not found in:\n%s" msg needle hay

let test_hist_bucket_geometry () =
  (* Golden boundaries: the ladder is a pure formula, so these numbers
     must never drift — merging across processes depends on it. *)
  check Alcotest.int "bucket count" 176 Obs.Metrics.n_buckets;
  check (Alcotest.float 1e-24) "bucket 0 upper bound" 1e-9
    (Obs.Metrics.bucket_upper 0);
  check (Alcotest.float 1e-24) "one octave up doubles" 2e-9
    (Obs.Metrics.bucket_upper 4);
  check (Alcotest.float 1e-12) "thirty octaves up" 1.073741824
    (Obs.Metrics.bucket_upper 120);
  check Alcotest.bool "overflow bucket is unbounded" true
    (Obs.Metrics.bucket_upper Obs.Metrics.n_buckets = Float.infinity);
  let ratio = Float.pow 2.0 0.25 in
  for i = 1 to Obs.Metrics.n_buckets - 1 do
    let prev = Obs.Metrics.bucket_upper (i - 1) in
    let cur = Obs.Metrics.bucket_upper i in
    if cur <= prev then Alcotest.failf "ladder not monotonic at %d" i;
    check (Alcotest.float 1e-9)
      (Printf.sprintf "quarter-octave ratio at %d" i)
      ratio (cur /. prev)
  done;
  (* Indexing: upper bounds are inclusive; everything at or below the
     floor (including junk) lands in bucket 0, everything above the top
     in the overflow bucket. *)
  for i = 0 to Obs.Metrics.n_buckets - 1 do
    if Obs.Metrics.bucket_index (Obs.Metrics.bucket_upper i) <> i then
      Alcotest.failf "upper bound of bucket %d does not index to itself" i
  done;
  check Alcotest.int "just above a bound moves up" 4
    (Obs.Metrics.bucket_index (Obs.Metrics.bucket_upper 3 *. 1.000001));
  check Alcotest.int "below the floor" 0 (Obs.Metrics.bucket_index 1e-12);
  check Alcotest.int "zero" 0 (Obs.Metrics.bucket_index 0.0);
  check Alcotest.int "negative" 0 (Obs.Metrics.bucket_index (-1.0));
  check Alcotest.int "nan" 0 (Obs.Metrics.bucket_index Float.nan);
  check Alcotest.int "huge overflows" Obs.Metrics.n_buckets
    (Obs.Metrics.bucket_index 1e9)

let test_hist_quantile_error_bound () =
  (* Against the exact Prelude.Stats.percentile: the bucket estimate
     must never undershoot and overshoot by less than one bucket's
     relative width (2^(1/4) - 1). *)
  let slack = Float.pow 2.0 0.25 *. (1.0 +. 1e-9) in
  let distributions =
    [
      ("uniform", Array.init 1000 (fun i -> 1e-4 +. (float_of_int i *. 1e-5)));
      ( "geometric",
        Array.init 500 (fun i -> 1e-6 *. Float.pow 1.03 (float_of_int i)) );
      ( "bimodal",
        Array.init 400 (fun i -> if i mod 2 = 0 then 3e-4 else 7e-2) );
      ("singleton", [| 0.0421 |]);
    ]
  in
  List.iteri
    (fun ci (label, samples) ->
      let h = Obs.Metrics.hist (Printf.sprintf "test.obs.qbound.%d" ci) in
      Array.iter (Obs.Metrics.observe h) samples;
      List.iter
        (fun q ->
          let est = Obs.Metrics.quantile h q in
          let exact = Prelude.Stats.percentile samples (q *. 100.0) in
          if est < exact *. (1.0 -. 1e-9) then
            Alcotest.failf "%s p%g: estimate %g undershoots exact %g" label
              (q *. 100.0) est exact;
          if est > exact *. slack then
            Alcotest.failf "%s p%g: estimate %g > %g (exact %g + one bucket)"
              label (q *. 100.0) est (exact *. slack) exact)
        [ 0.0; 0.5; 0.9; 0.99; 1.0 ])
    distributions;
  (* Empty histogram: no answer, not a wrong one. *)
  let e = Obs.Metrics.hist "test.obs.qbound.empty" in
  check Alcotest.bool "empty quantile is nan" true
    (Float.is_nan (Obs.Metrics.quantile e 0.5))

(* The live JSON fragment of one registered histogram. *)
let hist_json name =
  match Obs.Json.member "histograms" (Obs.Metrics.snapshot ()) with
  | Some hs -> (
    match Obs.Json.member name hs with
    | Some j -> j
    | None -> Alcotest.failf "snapshot lacks histogram %s" name)
  | None -> Alcotest.fail "snapshot lacks histograms"

let test_hist_merge_associative () =
  let mk i samples =
    let name = Printf.sprintf "test.obs.merge.%d" i in
    let h = Obs.Metrics.hist name in
    List.iter (Obs.Metrics.observe h) samples;
    hist_json name
  in
  let a = mk 0 [ 1e-4; 2e-4; 3e-4 ]
  and b = mk 1 [ 5e-2; 6e-2 ]
  and c = mk 2 [ 9.0; 1e-8; 0.5 ] in
  let merge x y =
    match Obs.Metrics.merge_hist_json x y with
    | Some m -> m
    | None -> Alcotest.fail "same-scheme merge refused"
  in
  check Alcotest.bool "merge is associative" true
    (merge (merge a b) c = merge a (merge b c));
  check Alcotest.bool "merge is commutative" true (merge a b = merge b a);
  let m = merge (merge a b) c in
  check Alcotest.(option int) "counts add" (Some 8)
    (Option.bind (Obs.Json.member "count" m) Obs.Json.to_int);
  check Alcotest.bool "max is the overall max" true
    (Option.bind (Obs.Json.member "max" m) Obs.Json.to_float = Some 9.0);
  (* Merged quantiles still answer (the p99 must reach into c's 9.0
     sample's bucket neighbourhood). *)
  (match Obs.Metrics.quantile_of_json m 0.99 with
  | Some q -> check Alcotest.bool "merged p99 in range" true (q > 0.5 && q <= 9.0)
  | None -> Alcotest.fail "merged histogram lost its buckets");
  (* A foreign scheme is refused, not silently mis-merged. *)
  let foreign =
    Obs.Json.Obj
      [
        ("count", Obs.Json.Int 1); ("sum", Obs.Json.Float 1.0);
        ("scheme", Obs.Json.Str "someone-elses");
        ("buckets", Obs.Json.List []);
      ]
  in
  check Alcotest.bool "foreign scheme refused" true
    (Obs.Metrics.merge_hist_json a foreign = None)

let test_snapshot_merge_and_delta () =
  let snap counters hists =
    Obs.Json.Obj
      [
        ("counters", Obs.Json.Obj counters);
        ("gauges", Obs.Json.Obj []);
        ("histograms", Obs.Json.Obj hists);
      ]
  in
  let s1 = snap [ ("x", Obs.Json.Int 2) ] []
  and s2 = snap [ ("x", Obs.Json.Int 3); ("y", Obs.Json.Int 1) ] [] in
  let m = Obs.Metrics.merge_snapshots [ s1; s2 ] in
  let counter name =
    Option.bind (Obs.Json.member "counters" m) (fun c ->
        Option.bind (Obs.Json.member name c) Obs.Json.to_int)
  in
  check Alcotest.(option int) "shared counter adds" (Some 5) (counter "x");
  check Alcotest.(option int) "lone counter kept" (Some 1) (counter "y");
  (* Windowing: the delta of two snapshots of one growing histogram is
     exactly the samples in between. *)
  let name = "test.obs.delta" in
  let h = Obs.Metrics.hist name in
  List.iter (Obs.Metrics.observe h) [ 1e-3; 2e-3 ];
  let before = hist_json name in
  List.iter (Obs.Metrics.observe h) [ 5e-2; 6e-2; 7e-2 ];
  let after = hist_json name in
  match Obs.Metrics.delta_hist_json ~prev:before after with
  | None -> Alcotest.fail "delta refused"
  | Some d ->
    check Alcotest.(option int) "window count" (Some 3)
      (Option.bind (Obs.Json.member "count" d) Obs.Json.to_int);
    (match Obs.Metrics.quantile_of_json d 0.5 with
    | Some p50 ->
      (* The window only saw the 5..7e-2 samples; its median must sit
         near them, not near the older millisecond samples. *)
      check Alcotest.bool "window median in the window" true
        (p50 > 4e-2 && p50 < 8e-2)
    | None -> Alcotest.fail "delta lost its buckets");
    check Alcotest.bool "fresh delta of identical snapshots is empty" true
      (match Obs.Metrics.delta_hist_json ~prev:after after with
      | Some d -> Obs.Json.member "count" d = Some (Obs.Json.Int 0)
      | None -> false)

let test_prom_render () =
  check Alcotest.string "mangling" "serve_request_seconds"
    (Obs.Prom.mangle "serve.request.seconds");
  let c = Obs.Metrics.counter "test.prom.requests" in
  Obs.Metrics.add c 3;
  let g = Obs.Metrics.gauge "test.prom.depth" in
  Obs.Metrics.set g 2.0;
  let h = Obs.Metrics.hist "test.prom.seconds" in
  List.iter (Obs.Metrics.observe h) [ 1e-3; 2e-3; 4e-3; 10.0 ];
  let body = Obs.Prom.render (Obs.Metrics.snapshot ()) in
  check_contains ~msg:"counter type" "# TYPE test_prom_requests counter" body;
  check_contains ~msg:"counter sample" "test_prom_requests 3" body;
  check_contains ~msg:"gauge type" "# TYPE test_prom_depth gauge" body;
  check_contains ~msg:"histogram type" "# TYPE test_prom_seconds histogram"
    body;
  check_contains ~msg:"+Inf bucket closes the ladder"
    "test_prom_seconds_bucket{le=\"+Inf\"} 4" body;
  check_contains ~msg:"count" "test_prom_seconds_count 4" body;
  check_contains ~msg:"sum" "test_prom_seconds_sum" body;
  check_contains ~msg:"sibling quantile family"
    "# TYPE test_prom_seconds_quantile gauge" body;
  check_contains ~msg:"p99 quantile"
    "test_prom_seconds_quantile{quantile=\"0.99\"}" body;
  check_contains ~msg:"max as quantile 1"
    "test_prom_seconds_quantile{quantile=\"1\"} 10" body

(* ---- cross-process stitching ------------------------------------------- *)

let j_obj = fun fields -> Obs.Json.Obj fields
let js s = Obs.Json.Str s
let ji i = Obs.Json.Int i
let jf f = Obs.Json.Float f

let manifest2 ~process ~tid =
  j_obj
    [
      ("ev", js "manifest"); ("ts", jf 0.0); ("seq", ji 0); ("version", ji 2);
      ("process", js process); ("trace_id", js tid);
    ]

let span_begin ?parent ?remote ~seq ~id ~ts name =
  j_obj
    ([ ("ev", js "span_begin"); ("ts", jf ts); ("seq", ji seq); ("id", ji id);
       ("name", js name);
       ("parent", match parent with Some p -> ji p | None -> Obs.Json.Null) ]
    @
    match remote with
    | Some (p, s) ->
      [ ("remote", j_obj [ ("process", js p); ("span", ji s) ]) ]
    | None -> [])

let span_end ~seq ~id ~dur name =
  j_obj
    [
      ("ev", js "span_end"); ("ts", jf (dur +. 1.0)); ("seq", ji seq);
      ("id", ji id); ("name", js name); ("dur_s", jf dur); ("cpu_s", jf dur);
      ("ok", Obs.Json.Bool true);
    ]

let coord_events =
  [
    manifest2 ~process:"coord" ~tid:"cafe01";
    span_begin ~seq:1 ~id:1 ~ts:1.0 "train";
    span_begin ~parent:1 ~seq:2 ~id:2 ~ts:1.2 "cluster.evaluate";
    span_end ~seq:3 ~id:2 ~dur:4.0 "cluster.evaluate";
    span_end ~seq:4 ~id:1 ~dur:5.0 "train";
    j_obj [ ("ev", js "stop"); ("ts", jf 6.0); ("seq", ji 5); ("dur_s", jf 6.0) ];
  ]

let worker_events ~remote_span =
  [
    manifest2 ~process:"worker-0" ~tid:"cafe01";
    span_begin
      ~remote:("coord", remote_span)
      ~seq:1 ~id:1 ~ts:2.0 "cluster.lease";
    span_begin ~parent:1 ~seq:2 ~id:2 ~ts:2.1 "store.profile";
    span_end ~seq:3 ~id:2 ~dur:1.5 "store.profile";
    span_end ~seq:4 ~id:1 ~dur:2.0 "cluster.lease";
  ]

let stitch_ok traces =
  match Obs.Stitch.stitch traces with
  | Ok t -> t
  | Error e -> Alcotest.failf "stitch refused: %s" e

let test_stitch_joins_remote_parents () =
  let t =
    stitch_ok
      [
        ("coord.jsonl", coord_events);
        ("w0.jsonl", worker_events ~remote_span:2);
      ]
  in
  check Alcotest.int "no orphans" 0 (Obs.Stitch.orphan_count t);
  check Alcotest.int "one causal root" 1 (List.length t.Obs.Stitch.roots);
  check Alcotest.(list string) "one trace id" [ "cafe01" ]
    t.Obs.Stitch.trace_ids;
  let root = List.hd t.Obs.Stitch.roots in
  check Alcotest.string "root is the coordinator's train span" "train"
    root.Obs.Stitch.name;
  (* The worker's lease hangs under the coordinator's evaluate span. *)
  let evaluate = List.hd root.Obs.Stitch.children in
  check Alcotest.string "evaluate below train" "cluster.evaluate"
    evaluate.Obs.Stitch.name;
  (match evaluate.Obs.Stitch.children with
  | [ lease ] ->
    check Alcotest.string "lease crossed processes" "cluster.lease"
      lease.Obs.Stitch.name;
    check Alcotest.string "lease kept its process" "worker-0"
      lease.Obs.Stitch.process
  | l -> Alcotest.failf "expected one lease child, got %d" (List.length l));
  (* Critical path walks into the worker. *)
  let path = Obs.Stitch.critical_path t in
  check
    Alcotest.(list string)
    "critical path"
    [ "train"; "cluster.evaluate"; "cluster.lease"; "store.profile" ]
    (List.map (fun s -> s.Obs.Stitch.name) path);
  (* Cross-process children overlap the parent instead of consuming it:
     the coordinator's self time ignores the worker's 2 s. *)
  let self p = List.assoc p (Obs.Stitch.per_process_self t) in
  check (Alcotest.float 1e-9) "coord self" 5.0 (self "coord");
  check (Alcotest.float 1e-9) "worker self" 2.0 (self "worker-0");
  let rendered = Obs.Stitch.render t in
  check_contains ~msg:"zero-orphan line" "orphan spans: 0" rendered;
  check_contains ~msg:"tree crosses processes" "cluster.lease @worker-0"
    rendered

let test_stitch_counts_orphans () =
  (* The worker's remote parent points at a span the coordinator never
     wrote: the lease must surface as an orphan, not vanish. *)
  let t =
    stitch_ok
      [
        ("coord.jsonl", coord_events);
        ("w0.jsonl", worker_events ~remote_span:99);
      ]
  in
  check Alcotest.int "dangling remote is an orphan" 1
    (Obs.Stitch.orphan_count t);
  check_contains ~msg:"orphans rendered" "orphan spans: 1"
    (Obs.Stitch.render t);
  check_contains ~msg:"orphan names its missing parent" "remote coord/99"
    (Obs.Stitch.render t)

let test_stitch_v1_files_load () =
  (* A v1 trace has no process/trace_id; the file name becomes the
     process identity and its spans form their own tree. *)
  let v1 =
    [
      j_obj
        [
          ("ev", js "manifest"); ("ts", jf 0.0); ("seq", ji 0);
          ("version", ji 1);
        ];
      span_begin ~seq:1 ~id:1 ~ts:0.5 "run";
      span_end ~seq:2 ~id:1 ~dur:1.0 "run";
    ]
  in
  let t =
    stitch_ok [ ("coord.jsonl", coord_events); ("/tmp/old-v1.jsonl", v1) ]
  in
  check Alcotest.int "no orphans" 0 (Obs.Stitch.orphan_count t);
  check Alcotest.int "two independent roots" 2
    (List.length t.Obs.Stitch.roots);
  let old =
    List.find
      (fun p -> p.Obs.Stitch.p_version = 1)
      t.Obs.Stitch.processes
  in
  check Alcotest.string "file name is the identity" "old-v1.jsonl"
    old.Obs.Stitch.p_name

(* ---- Spans and trace files --------------------------------------------- *)

let field name r = Option.get (Obs.Json.member name r)
let str_field name r = Option.get (Obs.Json.to_str (field name r))
let int_field name r = Option.get (Obs.Json.to_int (field name r))

let events_of_kind kind events =
  List.filter (fun r -> Obs.Json.member "ev" r = Some (Obs.Json.Str kind)) events

let with_trace f =
  (* Route a fresh trace through a temp file and hand the validated,
     parsed events to the caller. *)
  let path = Filename.temp_file "test_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Trace.start ~manifest:[ ("cmd", Obs.Json.Str "test") ] path;
      Fun.protect ~finally:Obs.Trace.stop f;
      Obs.Trace.stop ();
      match Obs.Trace.validate_file path with
      | Ok events -> events
      | Error e -> Alcotest.failf "trace did not validate: %s" e)

let test_span_nesting () =
  let events =
    with_trace (fun () ->
        Obs.Span.with_ "test.outer" (fun () ->
            Obs.Span.with_ "test.inner" (fun () ->
                Obs.Span.event "test.leaf" [ ("k", Obs.Json.Int 7) ])))
  in
  let begins = events_of_kind "span_begin" events in
  let ends = events_of_kind "span_end" events in
  check Alcotest.int "two begins" 2 (List.length begins);
  check Alcotest.int "two ends" 2 (List.length ends);
  let find_begin name =
    List.find (fun r -> str_field "name" r = name) begins
  in
  let outer = find_begin "test.outer" and inner = find_begin "test.inner" in
  check Alcotest.bool "outer is a root span" true
    (field "parent" outer = Obs.Json.Null);
  check Alcotest.int "inner nests under outer" (int_field "id" outer)
    (int_field "parent" inner);
  let leaf = List.hd (events_of_kind "event" events) in
  check Alcotest.int "leaf parented to innermost span" (int_field "id" inner)
    (int_field "parent" leaf);
  check Alcotest.int "leaf keeps its fields" 7 (int_field "k" leaf);
  (* Begin/end ordering by seq: outer opens first, closes last. *)
  let seq name kind =
    int_field "seq"
      (List.find
         (fun r -> str_field "name" r = name)
         (events_of_kind kind events))
  in
  check Alcotest.bool "outer begins before inner" true
    (seq "test.outer" "span_begin" < seq "test.inner" "span_begin");
  check Alcotest.bool "inner ends before outer" true
    (seq "test.inner" "span_end" < seq "test.outer" "span_end");
  let ender = List.find (fun r -> str_field "name" r = "test.outer") ends in
  check Alcotest.bool "clean exit" true (field "ok" ender = Obs.Json.Bool true);
  (* Well-formed tail: metrics snapshot then stop. *)
  check Alcotest.int "one metrics event" 1
    (List.length (events_of_kind "metrics" events));
  check Alcotest.int "one stop event" 1
    (List.length (events_of_kind "stop" events))

let test_span_failure_recorded () =
  let events =
    with_trace (fun () ->
        try Obs.Span.with_ "test.fails" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  let e =
    List.find
      (fun r -> str_field "name" r = "test.fails")
      (events_of_kind "span_end" events)
  in
  check Alcotest.bool "failure recorded" true
    (field "ok" e = Obs.Json.Bool false)

let test_pool_events_keep_parent () =
  (* Fan-out over the pool: tasks run on other domains, whose DLS span
     stacks are empty — events stay parented via the explicit id. *)
  let events =
    with_trace (fun () ->
        Obs.Span.with_ "test.fanout" (fun () ->
            let parent = Obs.Span.current_id () in
            let _ =
              with_pool 4 (fun pool ->
                  Prelude.Pool.init pool 16 (fun i ->
                      Obs.Span.event ~parent "test.task"
                        [ ("i", Obs.Json.Int i) ];
                      i))
            in
            ()))
  in
  let begins = events_of_kind "span_begin" events in
  let fanout =
    List.find (fun r -> str_field "name" r = "test.fanout") begins
  in
  let tasks =
    List.filter
      (fun r -> str_field "name" r = "test.task")
      (events_of_kind "event" events)
  in
  check Alcotest.int "all task events recorded" 16 (List.length tasks);
  List.iter
    (fun t ->
      check Alcotest.int "task parented across domains"
        (int_field "id" fanout) (int_field "parent" t))
    tasks

let test_validate_rejects_malformed () =
  let write lines =
    let path = Filename.temp_file "test_obs_bad" ".jsonl" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    let r = Obs.Trace.validate_file path in
    Sys.remove path;
    r
  in
  let manifest =
    {|{"ev":"manifest","ts":0.0,"seq":0,"version":1,"unix_time":0.0,"git":"g","argv":[],"env":{}}|}
  in
  let expect_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should not validate" what
  in
  expect_error "empty file" (write []);
  expect_error "missing manifest"
    (write [ {|{"ev":"log","ts":0.0,"seq":0,"msg":"hi"}|} ]);
  expect_error "seq gap"
    (write [ manifest; {|{"ev":"log","ts":0.0,"seq":5,"msg":"hi"}|} ]);
  expect_error "unknown event type"
    (write [ manifest; {|{"ev":"mystery","ts":0.0,"seq":1}|} ]);
  expect_error "missing required field"
    (write
       [ manifest; {|{"ev":"span_end","ts":0.0,"seq":1,"id":1,"name":"x"}|} ]);
  expect_error "wrong field type"
    (write [ manifest; {|{"ev":"log","ts":0.0,"seq":1,"msg":12}|} ]);
  match write [ manifest; {|{"ev":"log","ts":0.1,"seq":1,"msg":"hi"}|} ] with
  | Ok events -> check Alcotest.int "valid file parses" 2 (List.length events)
  | Error e -> Alcotest.failf "valid file rejected: %s" e

(* ---- trace v2 manifest and remote span propagation --------------------- *)

let test_trace_v2_manifest_and_remote () =
  let path = Filename.temp_file "test_obs_v2" ".jsonl" in
  let events =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Obs.Trace.start ~trace_id:"feedbeef" ~process:"proc-a" path;
        check Alcotest.(option string) "trace id exposed" (Some "feedbeef")
          (Obs.Trace.trace_id ());
        check Alcotest.(option string) "process exposed" (Some "proc-a")
          (Obs.Trace.process_name ());
        check Alcotest.(option string) "path exposed" (Some path)
          (Obs.Trace.path ());
        Fun.protect ~finally:Obs.Trace.stop (fun () ->
            Obs.Span.with_ "test.root" (fun () ->
                (match Obs.Span.current_context () with
                | Some ctx ->
                  check Alcotest.string "context trace id" "feedbeef"
                    ctx.Obs.Span.trace_id;
                  check Alcotest.string "context process" "proc-a"
                    ctx.Obs.Span.process;
                  check Alcotest.bool "context span id set" true
                    (ctx.Obs.Span.span <> None)
                | None -> Alcotest.fail "no context inside an active trace"));
            Obs.Span.with_
              ~remote_parent:
                {
                  Obs.Span.trace_id = "feedbeef";
                  process = "coord";
                  span = Some 7;
                }
              "test.entry"
              (fun () -> ()));
        match Obs.Trace.validate_file path with
        | Ok events -> events
        | Error e -> Alcotest.failf "v2 trace did not validate: %s" e)
  in
  check Alcotest.(option string) "no sink, no context" None
    (Option.map (fun _ -> "ctx") (Obs.Span.current_context ()));
  let manifest = List.hd events in
  check Alcotest.int "manifest version 2" 2 (int_field "version" manifest);
  check Alcotest.string "manifest trace id" "feedbeef"
    (str_field "trace_id" manifest);
  check Alcotest.string "manifest process" "proc-a"
    (str_field "process" manifest);
  let entry =
    List.find
      (fun r -> str_field "name" r = "test.entry")
      (events_of_kind "span_begin" events)
  in
  let remote = field "remote" entry in
  check Alcotest.string "remote process recorded" "coord"
    (str_field "process" remote);
  check Alcotest.int "remote span recorded" 7 (int_field "span" remote);
  (* And the whole file stitches against a synthetic coordinator that
     owns span 7. *)
  let coord =
    [
      manifest2 ~process:"coord" ~tid:"feedbeef";
      span_begin ~seq:1 ~id:7 ~ts:0.0 "serve.request";
      span_end ~seq:2 ~id:7 ~dur:1.0 "serve.request";
    ]
  in
  let t = stitch_ok [ ("coord.jsonl", coord); (path, events) ] in
  check Alcotest.int "real trace stitches clean" 0 (Obs.Stitch.orphan_count t)

(* ---- the report's tables ----------------------------------------------- *)

let test_stitch_span_table_self_time () =
  (* The coordinator alone: train runs 5 s, 4 of them in its local
     cluster.evaluate child. *)
  let t = stitch_ok [ ("coord.jsonl", coord_events) ] in
  let train = List.assoc "train" (Obs.Stitch.spans_by_name t) in
  check Alcotest.int "one train call" 1 train.Obs.Stitch.calls;
  check (Alcotest.float 1e-9) "train total" 5.0 train.Obs.Stitch.total_s;
  check (Alcotest.float 1e-9) "train self" 1.0 train.Obs.Stitch.self_s;
  check (Alcotest.float 1e-9) "train max" 5.0 train.Obs.Stitch.max_s;
  check_contains ~msg:"rendered train row"
    "\n  train                               1      5.000      1.000   \
     5.000000\n"
    (Obs.Stitch.render t)

let test_stitch_leaf_events_by_name () =
  let leaf ?dur ~seq name =
    j_obj
      ([ ("ev", js "event"); ("ts", jf 1.0); ("seq", ji seq);
         ("name", js name); ("parent", Obs.Json.Null) ]
      @ match dur with Some d -> [ ("dur_s", jf d) ] | None -> [])
  in
  let t =
    stitch_ok
      [
        ( "p.jsonl",
          [ manifest2 ~process:"p" ~tid:"cafe01"; leaf ~seq:1 ~dur:0.5 "interp";
            leaf ~seq:2 "pass"; leaf ~seq:3 ~dur:0.25 "interp";
            leaf ~seq:4 "pass" ] );
        ( "q.jsonl",
          [ manifest2 ~process:"q" ~tid:"cafe01";
            leaf ~seq:1 ~dur:1.0 "interp" ] );
      ]
  in
  check
    Alcotest.(list (triple string int (float 1e-9)))
    "dur_s summed by name across files; events without it still count"
    [ ("interp", 3, 1.75); ("pass", 2, 0.0) ]
    t.Obs.Stitch.leaves

let test_stitch_lists_nonzero_metrics () =
  let events =
    with_trace (fun () ->
        ignore (Obs.Metrics.counter "test.report.zero");
        ignore (Obs.Metrics.gauge "test.report.idle");
        Obs.Metrics.add (Obs.Metrics.counter "test.report.hits") 3;
        Obs.Metrics.set (Obs.Metrics.gauge "test.report.depth") 2.0)
  in
  let rendered = Obs.Stitch.render (stitch_ok [ ("t.jsonl", events) ]) in
  let snapshot = field "metrics" (List.hd (events_of_kind "metrics" events)) in
  let each section line =
    match Obs.Json.member section snapshot with
    | Some (Obs.Json.Obj kv) ->
      List.iter
        (fun (k, v) ->
          let shown, nonzero = line k v in
          check Alcotest.bool (k ^ " listed iff nonzero") nonzero
            (contains ~needle:shown rendered))
        kv
    | _ -> Alcotest.failf "the snapshot has no %s" section
  in
  each "counters" (fun k v ->
      let n = Option.get (Obs.Json.to_int v) in
      (Printf.sprintf "\n  %-40s %d\n" k n, n <> 0));
  each "gauges" (fun k v ->
      let x = Option.get (Obs.Json.to_float v) in
      (Printf.sprintf "\n  %-40s %.3f\n" k x, x <> 0.0));
  check_contains ~msg:"the counter set here" "test.report.hits" rendered;
  check_contains ~msg:"the gauge set here" "test.report.depth" rendered;
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " is not listed") false
        (contains ~needle:name rendered))
    [ "test.report.zero"; "test.report.idle" ]

let test_stitch_process_line_argv () =
  let manifest =
    j_obj
      [
        ("ev", js "manifest"); ("ts", jf 0.0); ("seq", ji 0); ("version", ji 2);
        ("process", js "coord"); ("trace_id", js "cafe01");
        ( "argv",
          Obs.Json.List [ js "portopt"; js "train"; js "--workers"; js "2" ] );
        ("env", j_obj [ ("REPRO_UARCHS", js "2") ]);
      ]
  in
  let t = stitch_ok [ ("coord.jsonl", manifest :: List.tl coord_events) ] in
  check_contains ~msg:"argv and env below the process line"
    "(v2, coord.jsonl)\n\
    \    argv: portopt train --workers 2\n\
    \    env:  REPRO_UARCHS=2\n"
    (Obs.Stitch.render t)

let test_stitch_refuses_one_process_twice () =
  match
    Obs.Stitch.stitch
      [
        ("a.jsonl", coord_events);
        ("w0.jsonl", worker_events ~remote_span:2);
        ("b.jsonl", coord_events);
      ]
  with
  | Ok _ -> Alcotest.fail "two files of process coord were stitched"
  | Error e ->
    check Alcotest.string "names both files and the process"
      "a.jsonl and b.jsonl both trace process coord" e

let test_ticker_renders_eta () =
  let lines = ref [] in
  let tick =
    Obs.Span.ticker
      ~print:(fun l -> lines := l :: !lines)
      ~every:2 ~total:4 "test-ticks"
  in
  tick "a";
  tick "b";
  tick "c";
  tick "d";
  match List.rev !lines with
  | [ first; second ] ->
    let has_prefix p s =
      String.length s >= String.length p && String.sub s 0 (String.length p) = p
    in
    check Alcotest.bool "halfway line" true (has_prefix "test-ticks 2/4" first);
    check Alcotest.bool "final line" true (has_prefix "test-ticks 4/4" second);
    check Alcotest.bool "detail carried" true
      (String.length second >= 1
      && String.sub second (String.length second - 1) 1 = "d")
  | other -> Alcotest.failf "expected 2 lines every=2, got %d" (List.length other)

(* ---- Bit-identity: tracing must not change results --------------------- *)

let micro_scale =
  {
    Ml_model.Dataset.n_uarchs = 2;
    n_opts = 6;
    seed = 31;
    space = Ml_model.Features.Base;
    good_fraction = 0.2;
  }

let test_tracing_preserves_golden_numbers () =
  (* The acceptance bar for the whole layer: a traced run at Debug
     verbosity produces bit-identical datasets and cross-validation
     outcomes to an untraced run. *)
  let quiet =
    with_pool 4 (fun pool ->
        let d = Ml_model.Dataset.generate ~pool micro_scale in
        (d, Ml_model.Crossval.run ~pool d))
  in
  let path = Filename.temp_file "test_obs_identity" ".jsonl" in
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_level Obs.Trace.Info;
        try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Obs.Trace.start path;
        Obs.Trace.set_level Obs.Trace.Debug;
        Fun.protect ~finally:Obs.Trace.stop (fun () ->
            with_pool 4 (fun pool ->
                let d = Ml_model.Dataset.generate ~pool micro_scale in
                (d, Ml_model.Crossval.run ~pool d))))
  in
  let (d0, o0) = quiet and (d1, o1) = traced in
  check Alcotest.bool "pairs bit-identical" true
    (d0.Ml_model.Dataset.pairs = d1.Ml_model.Dataset.pairs);
  check Alcotest.bool "settings identical" true
    (d0.Ml_model.Dataset.settings = d1.Ml_model.Dataset.settings);
  check Alcotest.bool "outcomes bit-identical" true (o0 = o1)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "parse forms" `Quick test_json_parse_forms;
          Alcotest.test_case "float printer matches Printf" `Quick
            test_json_float_printer_matches_printf;
          Alcotest.test_case "pull reader" `Quick test_json_pull_reader;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "add_string matches the bytewise escaper" `Quick
            test_json_add_string_matches_bytewise;
          Alcotest.test_case "number reader matches float_of_string" `Quick
            test_json_number_reader_exact;
          Alcotest.test_case "malformed numbers keep their errors" `Quick
            test_json_malformed_numbers;
          Alcotest.test_case "floats mixes token classes" `Quick
            test_json_floats_mixed_tokens;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter atomic under pool" `Quick
            test_counter_atomic_under_pool;
          Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
          Alcotest.test_case "gauge never tears under domains" `Quick
            test_gauge_no_torn_reads;
        ] );
      ( "hist",
        [
          Alcotest.test_case "golden bucket geometry" `Quick
            test_hist_bucket_geometry;
          Alcotest.test_case "quantile error vs exact percentile" `Quick
            test_hist_quantile_error_bound;
          Alcotest.test_case "merge associative and schemed" `Quick
            test_hist_merge_associative;
          Alcotest.test_case "snapshot merge and window delta" `Quick
            test_snapshot_merge_and_delta;
          Alcotest.test_case "prometheus exposition" `Quick test_prom_render;
        ] );
      ( "stitch",
        [
          Alcotest.test_case "remote parents join processes" `Quick
            test_stitch_joins_remote_parents;
          Alcotest.test_case "dangling parents are orphans" `Quick
            test_stitch_counts_orphans;
          Alcotest.test_case "v1 files still load" `Quick
            test_stitch_v1_files_load;
          Alcotest.test_case "span table shows self time" `Quick
            test_stitch_span_table_self_time;
          Alcotest.test_case "leaf events sum dur_s by name" `Quick
            test_stitch_leaf_events_by_name;
          Alcotest.test_case "only nonzero counters and gauges" `Quick
            test_stitch_lists_nonzero_metrics;
          Alcotest.test_case "argv and env on the process line" `Quick
            test_stitch_process_line_argv;
          Alcotest.test_case "one process in two files is refused" `Quick
            test_stitch_refuses_one_process_twice;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span failure" `Quick test_span_failure_recorded;
          Alcotest.test_case "pool parentage" `Quick
            test_pool_events_keep_parent;
          Alcotest.test_case "validation negatives" `Quick
            test_validate_rejects_malformed;
          Alcotest.test_case "v2 manifest and remote spans" `Quick
            test_trace_v2_manifest_and_remote;
          Alcotest.test_case "ticker eta" `Quick test_ticker_renders_eta;
        ] );
      ( "identity",
        [
          Alcotest.test_case "tracing preserves golden numbers" `Slow
            test_tracing_preserves_golden_numbers;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "shared_floats equals floats bit for bit" `Quick
            test_json_shared_floats_match_floats;
          Alcotest.test_case "shared_floats keeps floats' errors" `Quick
            test_json_shared_floats_keep_errors;
          Alcotest.test_case "intern bounds colliding lookups" `Quick
            test_intern_bounds_collisions;
        ] );
    ]
