(** Sharing tables: each distinct value is kept once, and a later equal
    key finds it again.

    A table holds values in the order they were added, each under an
    index, and finds them by a hash the caller computes and the
    equality the table was made with.  The index is open addressing
    with linear probing, and a lookup tests at most a fixed number of
    slots, so however a hostile input makes hashes collide, one lookup
    costs at most that many equality tests.  A value added when its
    probe window is full still gets an index but cannot be found:
    an equal key later adds it again, so the table stays correct and
    only shares less.  No [Stdlib.Hashtbl] chains, whose length an
    input could grow without bound. *)

type ('k, 'v) t

val create : equal:('k -> 'v -> bool) -> ('k, 'v) t
(** An empty table whose lookups accept a value [v] for key [k] when
    [equal k v]. *)

val find : ('k, 'v) t -> int -> 'k -> int
(** [find t h k] is the index of a value added with hash [h] that
    [k] equals, or [-1]. *)

val add : ('k, 'v) t -> int -> 'v -> int
(** [add t h v] keeps [v] under hash [h] and returns its index, the
    number of values added before it. *)

val get : ('k, 'v) t -> int -> 'v
val length : ('k, 'v) t -> int

val mix : int -> int -> int
(** [mix h x] folds [x] into the hash [h]. *)

(** {2 Float rows by their bits} *)

val hash_floats : float array -> int

val same_floats : float array -> float array -> bool
(** Equal lengths and equal bits everywhere: [-0.0] and [0.0] differ,
    and a NaN equals itself. *)
