(** Vantage-point tree over the normalised training rows — the shape
    a version-2 [.pcm] artifact carries in its ["index"] field.

    Prediction searches with {!Knn}; the tree is kept so that an
    artifact's bytes, and therefore its version id, stay those of every
    earlier build: a model loaded from a version-2 file writes its
    frozen tree back unchanged, and any other model builds one when it
    is exported.  Construction is deterministic (no randomness): vantage
    point = lowest row index of the subset, children split at the median
    vantage distance with a distance-then-index tie-break.  Two builds
    over the same matrix yield structurally equal trees. *)

type node =
  | Leaf of int array
  | Split of { vp : int; mu : float; inner : node; outer : node }

(* Subsets of at most this many rows stay leaves.  It shapes the frozen
   tree, so it is part of the artifact format. *)
let leaf_size = 12

let build rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Vptree.build: empty matrix";
  let dim = Array.length rows.(0) in
  if Array.exists (fun r -> Array.length r <> dim) rows then
    invalid_arg "Vptree.build: ragged matrix";
  let dist_rr i j = Features.distance rows.(i) rows.(j) in
  let rec split idxs =
    let m = Array.length idxs in
    if m <= leaf_size then begin
      let l = Array.copy idxs in
      Array.sort Int.compare l;
      Leaf l
    end
    else begin
      let vp = ref idxs.(0) in
      Array.iter (fun i -> if i < !vp then vp := i) idxs;
      let vp = !vp in
      let m1 = m - 1 in
      let od = Array.make m1 0.0 and oi = Array.make m1 0 in
      let p = ref 0 in
      Array.iter
        (fun i ->
          if i <> vp then begin
            oi.(!p) <- i;
            od.(!p) <- dist_rr vp i;
            incr p
          end)
        idxs;
      let ord = Array.init m1 (fun x -> x) in
      Array.sort
        (fun a b ->
          let c = Float.compare od.(a) od.(b) in
          if c <> 0 then c else Int.compare oi.(a) oi.(b))
        ord;
      let mid = (m1 - 1) / 2 in
      let mu = od.(ord.(mid)) in
      (* Members at positions <= mid have vantage distance <= mu (the
         inner ball), the rest >= mu. *)
      let inner = Array.init (mid + 1) (fun x -> oi.(ord.(x))) in
      let outer = Array.init (m1 - mid - 1) (fun x -> oi.(ord.(mid + 1 + x))) in
      Split { vp; mu; inner = split inner; outer = split outer }
    end
  in
  split (Array.init n (fun i -> i))

let of_root ~n root =
  let seen = Array.make (max n 0) false in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
  let mark i =
    if i < 0 || i >= n then fail "vptree: row index %d out of range (n=%d)" i n
    else if seen.(i) then fail "vptree: row index %d appears twice" i
    else seen.(i) <- true
  in
  let rec walk = function
    | Leaf idxs -> Array.iter mark idxs
    | Split { vp; mu; inner; outer } ->
      mark vp;
      if not (Float.is_finite mu) || mu < 0.0 then
        fail "vptree: invalid split radius";
      walk inner;
      walk outer
  in
  walk root;
  Array.iteri (fun i s -> if not s then fail "vptree: row index %d missing" i) seen;
  match !err with Some m -> Error m | None -> Ok root
