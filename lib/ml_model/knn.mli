(** Exact k-nearest-neighbour search over training rows grouped by
    their shared leading columns — the neighbour step of equation (6).

    A training set is programs × microarchitectures, and
    {!Features.raw} puts the microarchitecture descriptors first, so
    every program trained on one configuration carries the same
    descriptor prefix.  The index groups the rows by exact equality of
    their first [prefix] columns ({!Features.shared_prefix} supplies
    the count).  A query then pays the prefix once per group, not once
    per row, and a group whose prefix alone already lies beyond the
    current k-th neighbour is skipped without touching its rows.

    The search is exact: every distance is the left-to-right
    accumulation of {!Features.distance}, resumed from the group's
    prefix sum, so distances, neighbour sets and the (distance, then
    row index) order are bit-identical to {!Predict.neighbours}.  The
    groups are built in O(n) whenever a model is trained or loaded and
    are never serialised. *)

type t

val build : prefix:int -> float array array -> t
(** [build ~prefix rows] groups the (already normalised) rows by their
    first [prefix] columns, in order of first occurrence, rows
    ascending within a group.  [prefix = 0] makes one group: the search
    is then a flat scan.  Raises [Invalid_argument] if [rows] is empty
    or ragged, or [prefix] lies outside [0 .. dim]. *)

val groups : t -> int
(** Number of distinct prefixes. *)

val search : t -> k:int -> float array -> int array * float array
(** [search t ~k q] — the [min k n] row indices nearest to the
    normalised query [q] and their distances, sorted by (distance, then
    row index) ascending: exactly the prefix of
    {!Predict.neighbours}'s sort, for rows of finite values (a model's
    always are; a query may hold anything, including values whose
    squares overflow to [+inf]).

    Three steps: each group's prefix sum is computed once; the rows of
    the group with the smallest prefix sum are finished first, which
    sets the k-th distance; every other group is skipped when its
    prefix sum exceeds the square of the k-th distance padded by
    [1e-9 * (1 + d)], and otherwise its rows are finished from the
    shared prefix.  Partial sums of non-negative terms never decrease,
    so a skipped group holds no row that could enter the result; the
    padding covers the rounding of the squaring and keeps a row at
    exactly the k-th distance, which could still win its tie on a lower
    index.  The search loops allocate nothing; a second search running
    while the index's prefix buffer is in use allocates its own.
    Raises [Invalid_argument] when [k < 1] or the query dimension does
    not match. *)
