(** Exact k-nearest-neighbour search over rows grouped by their shared
    leading columns.

    Everything here serves one contract: [search] returns {e exactly}
    what {!Predict.neighbours}' full sort returns — the same neighbour
    set, the same distances bit for bit, in the same distance-then-index
    order.  Three ingredients deliver it:

    - a row's distance is {!Features.distance}'s accumulation, left to
      right from [0.0]; the rows of a group have equal prefixes, so the
      group's prefix sum is exactly the accumulator every one of its
      rows reaches after [prefix] columns, and finishing a row resumes
      from it;
    - candidates are ranked under the total order (distance, then row
      index) with [Float.compare], so ties at the k-th place resolve as
      the sort resolves them;
    - a group is skipped only when its prefix sum exceeds the padded
      k-th distance squared.  Adding a non-negative term to a float
      never lowers it, so every row of the group ends at least at the
      prefix sum; the 1e-9 relative padding is orders of magnitude
      beyond the rounding of the squaring, so a skipped row is strictly
      farther than the k-th neighbour and could not even tie it. *)

type t = {
  dim : int;
  prefix : int;  (** Leading columns the rows of a group share. *)
  rows : int array;
      (** Row indices in group order, ascending within a group. *)
  starts : int array;
      (** Group [g] is [rows.(starts.(g)) .. rows.(starts.(g + 1) - 1)]. *)
  data : float array;  (** The rows' values in [rows] order, [dim] each. *)
  pre : float array;
      (** One prefix sum per group, for the search holding [busy]. *)
  busy : bool Atomic.t;
}

let groups t = Array.length t.starts - 1

let build ~prefix rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Knn.build: empty matrix";
  let dim = Array.length rows.(0) in
  if Array.exists (fun r -> Array.length r <> dim) rows then
    invalid_arg "Knn.build: ragged matrix";
  if prefix < 0 || prefix > dim then
    invalid_arg
      (Printf.sprintf "Knn.build: prefix %d outside 0..%d" prefix dim);
  (* Group ids in order of first occurrence. *)
  let ids = Hashtbl.create 256 in
  let group =
    Array.map
      (fun row ->
        let key = Array.sub row 0 prefix in
        match Hashtbl.find_opt ids key with
        | Some g -> g
        | None ->
          let g = Hashtbl.length ids in
          Hashtbl.add ids key g;
          g)
      rows
  in
  let n_groups = Hashtbl.length ids in
  (* A counting sort by group; the stable pass keeps each group's rows
     ascending. *)
  let starts = Array.make (n_groups + 1) 0 in
  Array.iter (fun g -> starts.(g + 1) <- starts.(g + 1) + 1) group;
  for g = 1 to n_groups do
    starts.(g) <- starts.(g) + starts.(g - 1)
  done;
  let next = Array.sub starts 0 n_groups in
  let order = Array.make n 0 in
  Array.iteri
    (fun i g ->
      order.(next.(g)) <- i;
      next.(g) <- next.(g) + 1)
    group;
  let data = Array.make (n * dim) 0.0 in
  Array.iteri (fun slot i -> Array.blit rows.(i) 0 data (slot * dim) dim) order;
  {
    dim;
    prefix;
    rows = order;
    starts;
    data;
    pre = Array.make n_groups 0.0;
    busy = Atomic.make false;
  }

(* (d, i) strictly before (d', i') under the distance-then-index order. *)
let[@inline] before d i d' i' =
  let c = Float.compare d d' in
  c < 0 || (c = 0 && i < i')

(* Finish the rows of group [g] from its prefix sum [pre.(g)] and offer
   each to the [len] best candidates, kept sorted in [bd]/[bi]; returns
   the new count.  Nothing here allocates. *)
let finish t q pre bd bi len g =
  let k = Array.length bd and dim = t.dim and data = t.data in
  let len = ref len in
  for slot = t.starts.(g) to t.starts.(g + 1) - 1 do
    let base = slot * dim in
    let acc = ref (Array.unsafe_get pre g) in
    for j = t.prefix to dim - 1 do
      let d = Array.unsafe_get data (base + j) -. Array.unsafe_get q j in
      acc := !acc +. (d *. d)
    done;
    let d = sqrt !acc and i = Array.unsafe_get t.rows slot in
    if !len < k || before d i bd.(k - 1) bi.(k - 1) then begin
      let p = ref (min !len (k - 1)) in
      if !len < k then incr len;
      while !p > 0 && before d i bd.(!p - 1) bi.(!p - 1) do
        bd.(!p) <- bd.(!p - 1);
        bi.(!p) <- bi.(!p - 1);
        decr p
      done;
      bd.(!p) <- d;
      bi.(!p) <- i
    end
  done;
  !len

let search t ~k q =
  if k < 1 then
    invalid_arg (Printf.sprintf "Knn.search: k must be >= 1 (got %d)" k);
  let dim = t.dim in
  if Array.length q <> dim then
    invalid_arg
      (Printf.sprintf "Knn.search: query dimension %d, index dimension %d"
         (Array.length q) dim);
  let data = t.data and starts = t.starts in
  let n_groups = Array.length starts - 1 in
  (* The index's own buffer, unless a concurrent search holds it. *)
  let own = Atomic.compare_and_set t.busy false true in
  let pre = if own then t.pre else Array.make n_groups 0.0 in
  let nearest = ref 0 in
  for g = 0 to n_groups - 1 do
    let base = Array.unsafe_get starts g * dim in
    let acc = ref 0.0 in
    for j = 0 to t.prefix - 1 do
      let d = Array.unsafe_get data (base + j) -. Array.unsafe_get q j in
      acc := !acc +. (d *. d)
    done;
    Array.unsafe_set pre g !acc;
    if !acc < Array.unsafe_get pre !nearest then nearest := g
  done;
  (* The k best so far, sorted; they become the result. *)
  let k = min k (Array.length t.rows) in
  let bd = Array.make k Float.infinity and bi = Array.make k 0 in
  let len = ref (finish t q pre bd bi 0 !nearest) in
  for g = 0 to n_groups - 1 do
    if g <> !nearest then begin
      let skip =
        !len = k
        &&
        let tau = bd.(k - 1) in
        let r = tau +. (1e-9 *. (1.0 +. tau)) in
        Array.unsafe_get pre g > r *. r
      in
      if not skip then len := finish t q pre bd bi !len g
    end
  done;
  if own then Atomic.set t.busy false;
  (bi, bd)
