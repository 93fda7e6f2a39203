(** Vantage-point tree over the normalised training rows: the shape a
    version-2 [.pcm] artifact carries in its ["index"] field.

    Prediction does not search it ({!Knn} does); it is kept so that an
    artifact's bytes, and therefore its version id, stay those of every
    earlier build.  Construction is fully deterministic (vantage point =
    lowest row index of the subset, children split at the median vantage
    distance with a distance-then-index tie-break), so two builds over
    the same feature matrix produce structurally identical trees. *)

type node =
  | Leaf of int array  (** Row indices, ascending. *)
  | Split of { vp : int; mu : float; inner : node; outer : node }
      (** [inner] holds the rows within vantage distance [mu] of row
          [vp], [outer] the rest; [vp] belongs to neither child. *)

val build : float array array -> node
(** [build rows] — the tree over the (already normalised) feature
    matrix.  Deterministic; raises [Invalid_argument] if [rows] is empty
    or ragged. *)

val of_root : n:int -> node -> (node, string) result
(** Validate a deserialised tree over [n] rows: its leaves and vantage
    points must hold every row index exactly once and every [mu] must be
    finite and non-negative.  A tree whose {e shape} was corrupted
    without tripping these checks is caught by the artifact checksum
    upstream. *)
