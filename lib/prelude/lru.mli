(** Capacity-bounded LRU map.

    O(1) [get]/[put] via a hash table plus an intrusive recency list.
    Not internally synchronised: owners guard their instance with a
    mutex.  Shared by the serving layer's prediction cache and the
    in-RAM tier of the evaluation store's profile cache. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val get : ('k, 'v) t -> 'k -> 'v option
(** Promotes the entry to most-recently-used on hit; counts the hit or
    miss either way. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite (promoting to most-recent); evicts the
    least-recently-used entry when the capacity would be exceeded. *)

val size : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int

val keys_by_recency : ('k, 'v) t -> 'k list
(** Most recently used first, for tests and debugging. *)
