type t = { mutable h : int64 }

let prime = 0x100000001b3L
let basis = 0xcbf29ce484222325L

let create () = { h = basis }

let add_char t c =
  t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int (Char.code c))) prime

(* The one hot loop: feed [s.[pos ..]], at most [len] bytes, stopping
   before the first byte whose code is [stop] (-1 stops at none); the
   count fed.  The state lives in a local, which the compiler holds
   unboxed, and is stored once: folding [add_char] would box an int64
   into the record per byte. *)
let feed t s pos len stop =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Fnv.feed";
  let h = ref t.h and i = ref pos in
  let last = pos + len in
  while !i < last && Char.code (String.unsafe_get s !i) <> stop do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s !i))))
        prime;
    incr i
  done;
  t.h <- !h;
  !i - pos

let add_string t s = ignore (feed t s 0 (String.length s) (-1))
let add_line t s ~pos ~len = feed t s pos len (Char.code '\n')

let add_int t i =
  add_string t (string_of_int i);
  add_char t ';'

let to_hex t = Printf.sprintf "%016Lx" t.h
let tagged t = "fnv1a64:" ^ to_hex t

let digest_string s =
  let t = create () in
  add_string t s;
  to_hex t

let tagged_string s =
  let t = create () in
  add_string t s;
  tagged t
