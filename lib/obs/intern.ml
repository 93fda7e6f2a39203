(** Sharing tables — see intern.mli for the contract. *)

type ('k, 'v) t = {
  equal : 'k -> 'v -> bool;
  mutable slots : int array;  (** Power of two; 0 is free, else index + 1. *)
  mutable hashes : int array;  (** By index. *)
  mutable values : 'v array;  (** By index; the first [length] are set. *)
  mutable length : int;
}

(* The most slots a lookup or a placement visits.  The slots are at
   most a quarter full and a probe sequence is near random (below), so
   an honest value finds no room with odds below 0.25^16, about 2e-10. *)
let probes = 16

let create ~equal =
  { equal; slots = Array.make 16 0; hashes = [||]; values = [||]; length = 0 }

(* Double hashing: the probe sequence of hash [h] starts and steps by
   parts of its mixed bits, the step odd so that it visits distinct
   slots.  Hashes that share a start therefore part ways at once,
   where linear probing would pile them into one run. *)
let mixed h =
  let h = (h lxor (h lsr 32)) * 0x5bd1e9955bd1e995 in
  h lxor (h lsr 29)

let step m = (m lsr 24) lor 1

let find t h k =
  let mask = Array.length t.slots - 1 and m = mixed h in
  let s = ref (m land mask) and left = ref probes and found = ref (-1) in
  while !left > 0 do
    let i = t.slots.(!s) - 1 in
    if i < 0 then left := 0
    else if t.hashes.(i) = h && t.equal k t.values.(i) then begin
      found := i;
      left := 0
    end
    else begin
      s := (!s + step m) land mask;
      decr left
    end
  done;
  !found

(* Index [i] into the first free slot of its probe sequence, if any. *)
let place t i =
  let mask = Array.length t.slots - 1 and m = mixed t.hashes.(i) in
  let s = ref (m land mask) and left = ref probes in
  while !left > 0 do
    if t.slots.(!s) = 0 then begin
      t.slots.(!s) <- i + 1;
      left := 0
    end
    else begin
      s := (!s + step m) land mask;
      decr left
    end
  done

let add t h v =
  let i = t.length in
  if i = Array.length t.values then begin
    let cap = max 16 (2 * i) in
    let values = Array.make cap v and hashes = Array.make cap 0 in
    Array.blit t.values 0 values 0 i;
    Array.blit t.hashes 0 hashes 0 i;
    t.values <- values;
    t.hashes <- hashes
  end;
  t.values.(i) <- v;
  t.hashes.(i) <- h;
  t.length <- i + 1;
  (* At most a quarter full: double and place every index again. *)
  if 4 * t.length > Array.length t.slots then begin
    t.slots <- Array.make (2 * Array.length t.slots) 0;
    for j = 0 to i do
      place t j
    done
  end
  else place t i;
  i

let get t i =
  if i < 0 || i >= t.length then invalid_arg "Intern.get";
  t.values.(i)

let length t = t.length

let mix h x = (h * 0x100000001b3) lxor x

let hash_floats (a : float array) =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := mix !h (Int64.to_int (Int64.bits_of_float (Array.unsafe_get a i)))
  done;
  !h

let same_floats (a : float array) (b : float array) =
  a == b
  || Array.length a = Array.length b
     &&
     let n = Array.length a and i = ref 0 in
     while
       !i < n
       && Int64.bits_of_float (Array.unsafe_get a !i)
          = Int64.bits_of_float (Array.unsafe_get b !i)
     do
       incr i
     done;
     !i = n
