type t = { mutable h : int64 }

let prime = 0x100000001b3L
let basis = 0xcbf29ce484222325L

let create () = { h = basis }

let add_char t c =
  t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int (Char.code c))) prime

(* The hot loop keeps the state in a local, which the compiler holds
   unboxed, and stores it once: folding [add_char] would box an int64
   into the record per byte. *)
let add_string t s =
  let h = ref t.h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  t.h <- !h

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
