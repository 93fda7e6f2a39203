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
(** Euclidean — the d(.,.) of equation (6): the squared differences
    summed left to right from [0.0], then the root.  {!Knn} resumes this
    accumulation from a prefix sum its rows share, so the order is part
    of the bit-identity contract. *)

val shared_prefix : ?mask:bool array -> int -> int
(** [shared_prefix ?mask width] — how many leading columns of a model
    row are microarchitecture descriptors, the columns every program
    trained on one configuration shares ({!Knn} groups rows by them).
    Rows of [width] columns are in the space of that {!dim}, rows under
    [mask] in the space of the mask's length (which then decides alone);
    the count is that space's {!descriptor_dim} less the descriptors the
    mask drops, or 0 when no space matches. *)
