(** Feature vectors x = (c, d) — section 3.2.

    A program/microarchitecture pair is characterised by the 11 performance
    counters of a single -O3 run on that microarchitecture concatenated
    with the microarchitecture's descriptors (8 in the base space, 10 in
    the extended space).  Features are z-score normalised against the
    training set before the euclidean distances of equation (6) are
    computed, so no single counter dominates the metric. *)

open Prelude

type space = Base | Extended

let space_to_string = function Base -> "base" | Extended -> "extended"

let space_of_string = function
  | "base" -> Ok Base
  | "extended" -> Ok Extended
  | s -> Error (Printf.sprintf "unknown feature space %S" s)

let descriptor_dim = function Base -> 8 | Extended -> 10

let dim space = Sim.Counters.dim + descriptor_dim space

let names space =
  Array.append
    (match space with
    | Base -> Uarch.Config.descriptor_names
    | Extended -> Uarch.Config.descriptor_names_extended)
    Sim.Counters.names

(** Raw (unnormalised) feature vector from an -O3 verdict on [u]. *)
let raw space (counters : Sim.Counters.t) (u : Uarch.Config.t) =
  let d =
    match space with
    | Base -> Uarch.Config.descriptors u
    | Extended -> Uarch.Config.descriptors_extended u
  in
  Vec.concat d (Sim.Counters.to_array counters)

type normaliser = float array * float array

let fit_normaliser rows : normaliser = Stats.zscore_fit rows

let normalise (n : normaliser) row = Stats.zscore_apply n row

let distance = Vec.l2_distance

(** Flat-storage distance kernel for the metric index: the euclidean
    distance of {!distance} between row [row] of the row-major
    flattened matrix [data] ([dim] floats per row) and [q] — same
    subtraction and accumulation order as {!Vec.l2_distance}, so the
    result is bit-identical to [distance rows.(row) q].  Bounds are the
    caller's contract ([Vptree] validates the query dimension once per
    search); the unsafe reads keep the hot loop free of per-element
    checks. *)
let distance_to_row (data : float array) ~dim ~row (q : float array) =
  let base = row * dim in
  let acc = ref 0.0 in
  for j = 0 to dim - 1 do
    let d = Array.unsafe_get data (base + j) -. Array.unsafe_get q j in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc
