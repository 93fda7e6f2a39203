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

let shared_prefix ?mask width =
  let width = match mask with Some m -> Array.length m | None -> width in
  match List.find_opt (fun s -> dim s = width) [ Base; Extended ] with
  | None -> 0
  | Some space ->
    let d = descriptor_dim space in
    (match mask with
    | None -> d
    | Some m ->
      Array.fold_left (fun acc keep -> if keep then acc + 1 else acc) 0
        (Array.sub m 0 d))
