(** Feature vectors x = (c, d) — section 3.2 of the paper.

    A program/microarchitecture pair is characterised by the 11
    performance counters of a single -O3 run on that configuration
    (table 1) concatenated with the configuration's descriptors (8 in the
    base space, 10 in the extended space of section 7).  Features are
    z-score normalised against the training set before the euclidean
    distances of equation (6) are computed. *)

type space = Base | Extended

val space_to_string : space -> string
(** ["base"] or ["extended"]: the name artifacts, lineage records, trace
    attributes and the server's health reply carry. *)

val space_of_string : string -> (space, string) result
(** The inverse of {!space_to_string}; [Error] names any other string. *)

val descriptor_dim : space -> int
val dim : space -> int

val names : space -> string array
(** Descriptor names followed by counter names, matching {!raw}'s
    layout (figure 9's column order). *)

val raw : space -> Sim.Counters.t -> Uarch.Config.t -> float array
(** Unnormalised feature vector from an -O3 verdict's counters and a
    configuration. *)

type normaliser = float array * float array
(** Per-dimension (means, stds). *)

val fit_normaliser : float array array -> normaliser
val normalise : normaliser -> float array -> float array

val distance : float array -> float array -> float
(** Euclidean — the d(.,.) of equation (6). *)

val distance_to_row : float array -> dim:int -> row:int -> float array -> float
(** [distance_to_row data ~dim ~row q] — {!distance} between the
    [row]-th row of the row-major flattened matrix [data] and [q],
    bit-identical to the unflattened form (same float-op order).  The
    flat kernel behind {!Vptree}'s leaf visits and scan fallback: no
    tuple allocation, no polymorphic compare, no per-row array
    indirection.  Unsafe reads — the caller must guarantee
    [Array.length q = dim] and [(row + 1) * dim <= Array.length data]
    (the index validates both once per search). *)
