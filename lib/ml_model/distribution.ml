(** IID multinomial distributions over optimisation settings —
    equations (2)–(5) of the paper.

    A distribution assigns, independently per optimisation dimension
    (pass or parameter), a probability to each of its possible values:
    g(y) = prod_l g(y_l), with g(y_l) multinomial over S_l.

    {!fit} is the maximum-likelihood estimator of equation (5) against the
    empirical distribution of the "good" settings (the top 5% of sampled
    optimisations, weighted uniformly — footnote 1): theta_l,j is simply
    the frequency of value j among the good settings' l-th components.

    {!mix} forms the convex combination of neighbour distributions with
    the softmax weights of equation (6), and {!mode} takes the per-
    dimension argmax of equation (1). *)

open Prelude

type t = float array array
(** [t.(l).(j)] = probability that dimension [l] takes value index [j]. *)

let uniform () =
  Array.map
    (fun d ->
      let k = Passes.Flags.cardinality d in
      Array.make k (1.0 /. float_of_int k))
    Passes.Flags.dims

(* ---- sufficient statistics -------------------------------------------- *)

(* The multinomial's sufficient statistic is the per-dimension value
   count matrix.  Counts are small integers stored as floats (exact up
   to 2^53), so accumulating them incrementally — fold a batch now,
   another batch later — and normalising once at the end is
   bit-identical to a single fit over the concatenated good multiset:
   float addition of integers is exact, and the only division happens
   in {!of_counts}.  This is the identity [Registry.Refit] builds on. *)

type counts = float array array

let counts ?(alpha = 0.0) () : counts =
  Array.map
    (fun d -> Array.make (Passes.Flags.cardinality d) alpha)
    Passes.Flags.dims

let add_counts (c : counts) (good : Passes.Flags.setting array) =
  Array.iter
    (fun (s : Passes.Flags.setting) ->
      Array.iteri (fun l v -> c.(l).(v) <- c.(l).(v) +. 1.0) s)
    good

let of_counts (c : counts) : t =
  Array.map
    (fun row ->
      let z = Array.fold_left ( +. ) 0.0 row in
      if z > 0.0 then Array.map (fun v -> v /. z) row
      else
        (* Zero mass (nothing folded, no smoothing): maximum entropy,
           matching [fit]'s empty-good-set behaviour. *)
        Array.make (Array.length row) (1.0 /. float_of_int (Array.length row)))
    c

(** Maximum-likelihood fit (equation 5) with Laplace smoothing [alpha]
    (default 0: the paper's plain ML estimator; a small alpha guards
    against zero-probability values when the good set is tiny).
    Expressed through the sufficient-statistic helpers above so the
    one-shot and the incremental ({!counts}/{!add_counts}/{!of_counts})
    paths share every float operation — the per-cell addition sequence
    and the final division are identical, hence so are the bits. *)
let fit ?(alpha = 0.0) (good : Passes.Flags.setting array) : t =
  if Array.length good = 0 then uniform ()
  else begin
    let c = counts ~alpha () in
    add_counts c good;
    of_counts c
  end

(** Convex combination: [mix [(w1, g1); (w2, g2); ...]] with the weights
    summing to 1 (they are renormalised defensively). *)
let mix (weighted : (float * t) list) : t =
  match weighted with
  | [] -> invalid_arg "Distribution.mix: empty mixture"
  | (_, first) :: _ ->
    let z = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    if z <= 0.0 then invalid_arg "Distribution.mix: non-positive weights";
    (* Every cell adds up w /. z *. g from 0.0 in list order — the float
       operations of a fold over the list per cell — one row of one
       component at a time, in a loop that boxes no float. *)
    Array.mapi
      (fun l row ->
        let out = Array.make (Array.length row) 0.0 in
        List.iter
          (fun (w, g) ->
            let c = w /. z and gl = g.(l) in
            for j = 0 to Array.length out - 1 do
              out.(j) <- out.(j) +. (c *. gl.(j))
            done)
          weighted;
        out)
      first

(* ---- sharing ---------------------------------------------------------- *)

(* Whole distributions by their bits first: one met before, as most
   are, costs a hash of its rows and one comparison, and its rows are
   not looked up one by one.  A new one has each row replaced by the
   first row of equal bits, so distributions built from the same rows
   are made of the same arrays.  [last] is the distribution [share]
   last returned: a distribution whose rows are physically [last]'s
   needs no hashing, and a decoded model's rows, already shared by
   [Obs.Json.shared_floats], mostly repeat from one pair to the next. *)
type sharing = {
  rows : (float array, float array) Obs.Intern.t;
  whole : (t, t) Obs.Intern.t;
  mutable last : t;
}

(* [a] and [b] have equal lengths and [test a.(l) b.(l)] for every row. *)
let rows_all test (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let l = ref 0 in
  while !l < n && test (Array.unsafe_get a !l) (Array.unsafe_get b !l) do
    incr l
  done;
  !l = n

let sharing () =
  {
    rows = Obs.Intern.create ~equal:Obs.Intern.same_floats;
    whole = Obs.Intern.create ~equal:(rows_all Obs.Intern.same_floats);
    last = [||];
  }

let share_row s row =
  let h = Obs.Intern.hash_floats row in
  match Obs.Intern.find s.rows h row with
  | -1 ->
    ignore (Obs.Intern.add s.rows h row);
    row
  | i -> Obs.Intern.get s.rows i

let share s (g : t) : t =
  if not (rows_all ( == ) g s.last) then begin
    let h = ref (Array.length g) in
    Array.iter
      (fun row -> h := Obs.Intern.mix !h (Obs.Intern.hash_floats row))
      g;
    s.last <-
      (match Obs.Intern.find s.whole !h g with
      | -1 ->
        let g = Array.map (share_row s) g in
        ignore (Obs.Intern.add s.whole !h g);
        g
      | i -> Obs.Intern.get s.whole i)
  end;
  s.last

let distinct s = (Obs.Intern.length s.rows, Obs.Intern.length s.whole)

(** Equation (1): the setting with maximal probability, i.e. the
    per-dimension argmax under the IID factorisation.  Ties resolve to the
    lowest index for determinism. *)
let mode (g : t) : Passes.Flags.setting =
  Array.map
    (fun row ->
      let best = ref 0 in
      Array.iteri (fun j p -> if p > row.(!best) then best := j) row;
      !best)
    g

(** Log-likelihood of a setting, for tests and the ablation benches. *)
let log_likelihood (g : t) (s : Passes.Flags.setting) =
  let acc = ref 0.0 in
  Array.iteri
    (fun l v ->
      let p = g.(l).(v) in
      acc := !acc +. log (Float.max 1e-12 p))
    s;
  !acc

(** Draw a sample (used by the sampling-based ablation). *)
let sample rng (g : t) : Passes.Flags.setting =
  Array.map
    (fun row ->
      let u = Rng.float rng 1.0 in
      let rec pick j acc =
        if j >= Array.length row - 1 then j
        else begin
          let acc = acc +. row.(j) in
          if u < acc then j else pick (j + 1) acc
        end
      in
      pick 0 0.0)
    g
