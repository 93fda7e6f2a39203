type histogram = { entries : (int * int) array; cold : int; total : int }

let empty = { entries = [||]; cold = 0; total = 0 }

let quantise_threshold = 128

(* Geometric bucket representative for distances beyond the exact range:
   ~6% resolution, far finer than the capacity model's transition band. *)
let bucket d =
  if d <= quantise_threshold then d
  else begin
    let f = float_of_int d in
    let step = log 1.0625 in
    let k = Float.round (log f /. step) in
    int_of_float (Float.round (exp (k *. step)))
  end

let compact counts =
  (* [counts] is a (distance -> count) table; produce sorted quantised
     entries. *)
  let merged = Hashtbl.create 256 in
  Hashtbl.iter
    (fun d c ->
      let b = bucket d in
      Hashtbl.replace merged b
        (c + Option.value (Hashtbl.find_opt merged b) ~default:0))
    counts;
  (* Explicit int comparator on the distance key (the keys of a
     hashtable, hence unique) — not polymorphic [compare] on the
     tuples, which boxes through the generic path on this hot
     histogram-merge loop. *)
  let entries =
    Hashtbl.fold (fun d c acc -> (d, c) :: acc) merged []
    |> List.sort (fun (d1, _) (d2, _) -> Int.compare d1 d2)
    |> Array.of_list
  in
  entries

let histogram_of_blocks trace =
  let n = Array.length trace in
  if n = 0 then empty
  else begin
    let counts = Hashtbl.create 256 in
    let cold = ref 0 in
    (* Fenwick tree holds a 1 at the position of each block's most recent
       access; the count of ones strictly after an access's previous
       position is its stack distance. *)
    let fen = Fenwick.create n in
    let last = Hashtbl.create 1024 in
    for t = 0 to n - 1 do
      let b = trace.(t) in
      (match Hashtbl.find_opt last b with
      | None -> incr cold
      | Some t0 ->
        let d = Fenwick.range_sum fen (t0 + 1) (t - 1) in
        Hashtbl.replace counts d
          (1 + Option.value (Hashtbl.find_opt counts d) ~default:0);
        Fenwick.add fen t0 (-1));
      Fenwick.add fen t 1;
      Hashtbl.replace last b t
    done;
    { entries = compact counts; cold = !cold; total = n }
  end

let blocks_of_addresses ~block_bytes addrs =
  if block_bytes <= 0 || block_bytes land (block_bytes - 1) <> 0 then
    invalid_arg "Reuse.blocks_of_addresses: block size must be a power of two";
  let shift =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 block_bytes 0
  in
  Array.map (fun a -> a asr shift) addrs

let histogram_of_addresses ~block_bytes addrs =
  histogram_of_blocks (blocks_of_addresses ~block_bytes addrs)

let merge a b =
  let counts = Hashtbl.create 256 in
  let blit h =
    Array.iter
      (fun (d, c) ->
        Hashtbl.replace counts d
          (c + Option.value (Hashtbl.find_opt counts d) ~default:0))
      h.entries
  in
  blit a;
  blit b;
  { entries = compact counts; cold = a.cold + b.cold; total = a.total + b.total }

let binomial_tail_ge ~n ~p ~k =
  if k <= 0 then 1.0
  else if k > n then 0.0
  else if p <= 0.0 then 0.0
  else if p >= 1.0 then 1.0
  else
    let log_pmf0 = float_of_int n *. Float.log1p (-.p) in
    if log_pmf0 < -700.0 then
      (* (1-p)^n underflows; the mean n*p then vastly exceeds any way count
         we model (k <= 64), so the tail is effectively 1. *)
      1.0
    else begin
      let ratio = p /. (1.0 -. p) in
      let cdf = ref 0.0 in
      let pmf = ref (exp log_pmf0) in
      for j = 0 to k - 1 do
        cdf := !cdf +. !pmf;
        pmf := !pmf *. float_of_int (n - j) /. float_of_int (j + 1) *. ratio
      done;
      Float.max 0.0 (1.0 -. !cdf)
    end

let fold_misses h per_distance =
  let misses = ref (float_of_int h.cold) in
  Array.iter
    (fun (d, c) ->
      if c > 0 then begin
        let p = per_distance d in
        if p > 0.0 then misses := !misses +. (p *. float_of_int c)
      end)
    h.entries;
  !misses

let miss_fraction h ~sets ~ways =
  if h.total = 0 then 0.0
  else if sets < 1 || ways < 1 then invalid_arg "Reuse.miss_fraction"
  else begin
    let per_distance =
      if sets = 1 then fun d -> if d >= ways then 1.0 else 0.0
      else begin
        let p = 1.0 /. float_of_int sets in
        fun d -> if d < ways then 0.0 else binomial_tail_ge ~n:d ~p ~k:ways
      end
    in
    fold_misses h per_distance /. float_of_int h.total
  end

let expected_misses h ~sets ~ways =
  miss_fraction h ~sets ~ways *. float_of_int h.total

let miss_fraction_capacity h ~capacity_blocks ~ways =
  if h.total = 0 then 0.0
  else begin
    let c = float_of_int capacity_blocks in
    (* Higher associativity tolerates a working set closer to capacity
       before conflicts start. *)
    let log2 w = log (float_of_int w) /. log 2.0 in
    let lo_frac = Float.min 0.85 (0.55 +. (0.05 *. log2 (max 1 ways))) in
    let lo = lo_frac *. c in
    let hi = (2.0 -. lo_frac) *. c in
    let per_distance d =
      let d = float_of_int d in
      if d <= lo then 0.0 else if d >= hi then 1.0 else (d -. lo) /. (hi -. lo)
    in
    fold_misses h per_distance /. float_of_int h.total
  end

let expected_misses_capacity h ~capacity_blocks ~ways =
  miss_fraction_capacity h ~capacity_blocks ~ways *. float_of_int h.total
