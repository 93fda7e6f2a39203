(* Tests for the prelude: RNG, the domain pool, the LRU map, Fenwick
   tree, reuse-distance analysis, statistics, vectors, text rendering
   and the int buffer. *)

open Prelude

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checkf_loose msg = Alcotest.check (Alcotest.float 1e-6) msg

(* ---- Rng ------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_split_independent () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  let xs = Array.init 50 (fun _ -> Rng.int a 1000) in
  let ys = Array.init 50 (fun _ -> Rng.int b 1000) in
  if xs = ys then Alcotest.fail "split streams identical"

let test_rng_float_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 1.0 in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of range: %f" v
  done

let test_sample_without_replacement () =
  let rng = Rng.create 5 in
  let picks = Rng.sample_without_replacement rng 1000 100 in
  check Alcotest.int "count" 100 (Array.length picks);
  let seen = Hashtbl.create 128 in
  Array.iter
    (fun p ->
      if p < 0 || p >= 1000 then Alcotest.failf "out of range: %d" p;
      if Hashtbl.mem seen p then Alcotest.failf "duplicate: %d" p;
      Hashtbl.add seen p ())
    picks

let test_sample_full_population () =
  let rng = Rng.create 6 in
  let picks = Rng.sample_without_replacement rng 10 10 in
  let sorted = Array.copy picks in
  Array.sort compare sorted;
  check
    Alcotest.(array int)
    "permutation" (Array.init 10 Fun.id) sorted

let test_shuffle_permutation () =
  let rng = Rng.create 8 in
  let a = Array.init 30 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 30 Fun.id) sorted

let test_rng_chi_square_uniform () =
  (* Pearson chi-square against uniformity for the rejection-sampled
     [Rng.int].  bound = 13 is coprime with the 62-bit draw range, the
     case where plain [mod] would be biased.  df = 12; the 0.001
     critical value is 32.9, so 40 gives slack while still failing for
     any real bias (deterministic seed, so no flakiness either way). *)
  let bound = 13 in
  let n = 130_000 in
  let rng = Rng.create 2024 in
  let counts = Array.make bound 0 in
  for _ = 1 to n do
    let v = Rng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int n /. float_of_int bound in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  if chi2 > 40.0 then Alcotest.failf "chi-square too high: %f" chi2

let test_rng_int_huge_bound () =
  (* Near the top of the representable range the rejection path is
     actually reachable; values must still be in bounds. *)
  let rng = Rng.create 13 in
  for _ = 1 to 1_000 do
    let v = Rng.int rng max_int in
    if v < 0 then Alcotest.failf "negative draw: %d" v
  done

let test_gaussian_moments () =
  let rng = Rng.create 10 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng) in
  let m = Stats.mean xs and s = Stats.std xs in
  if Float.abs m > 0.05 then Alcotest.failf "gaussian mean %f" m;
  if Float.abs (s -. 1.0) > 0.05 then Alcotest.failf "gaussian std %f" s

(* ---- Pool ----------------------------------------------------------- *)

let with_pool jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_matches_sequential () =
  with_pool 4 (fun pool ->
      let f i = (i * i) + 1 in
      check
        Alcotest.(array int)
        "init preserves index order" (Array.init 100 f) (Pool.init pool 100 f);
      let xs = Array.init 37 string_of_int in
      check
        Alcotest.(array string)
        "map preserves order"
        (Array.map (fun s -> s ^ "!") xs)
        (Pool.map pool (fun s -> s ^ "!") xs))

let test_pool_sequential_size_one () =
  with_pool 1 (fun pool ->
      check Alcotest.int "size" 1 (Pool.size pool);
      check
        Alcotest.(array int)
        "jobs=1 inline" (Array.init 10 succ) (Pool.init pool 10 succ))

let test_pool_empty_and_reuse () =
  with_pool 3 (fun pool ->
      check Alcotest.(array int) "empty" [||] (Pool.init pool 0 Fun.id);
      (* Several batches through the same fixed pool. *)
      for n = 1 to 20 do
        check
          Alcotest.(array int)
          "batch" (Array.init n Fun.id) (Pool.init pool n Fun.id)
      done)

let test_pool_exception_lowest_index () =
  with_pool 4 (fun pool ->
      Alcotest.check_raises "first failing index wins" (Failure "task 3")
        (fun () ->
          ignore
            (Pool.init pool 64 (fun i ->
                 if i >= 3 then failwith (Printf.sprintf "task %d" i);
                 i))))

let test_pool_nested_use_rejected () =
  with_pool 2 (fun pool ->
      Alcotest.check_raises "nested init refused"
        (Invalid_argument "Pool.init: nested use of a fixed-size pool")
        (fun () ->
          ignore
            (Pool.init pool 2 (fun _ -> ignore (Pool.init pool 2 Fun.id)))))

let test_pool_parallel_work_is_deterministic () =
  (* Same work, three pool widths: bit-identical float results. *)
  let f i =
    let rng = Rng.create i in
    let acc = ref 0.0 in
    for _ = 1 to 500 do
      acc := !acc +. Rng.float rng 1.0
    done;
    !acc
  in
  let reference = Array.init 50 f in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let got = Pool.init pool 50 f in
          if got <> reference then
            Alcotest.failf "results differ at jobs=%d" jobs))
    [ 1; 2; 4 ]

let test_pool_submit_after_shutdown_raises () =
  let pool = Pool.create ~jobs:2 in
  let ran = Atomic.make false in
  Pool.submit pool (fun () -> Atomic.set ran true);
  Pool.shutdown pool;
  (* Work accepted before shutdown always executes... *)
  check Alcotest.bool "queued task ran" true (Atomic.get ran);
  (* ...but a drained pool refuses new work loudly. *)
  Alcotest.check_raises "submit after shutdown" Pool.Closed (fun () ->
      Pool.submit pool (fun () -> ()));
  (* And keeps refusing: Closed is a permanent state, not a race. *)
  Alcotest.check_raises "still closed" Pool.Closed (fun () ->
      Pool.submit pool (fun () -> ()))

let test_pool_shutdown_drains_queue () =
  (* Saturate a tiny pool with slow tasks so some are still queued when
     shutdown runs: they must execute inline before shutdown returns. *)
  let pool = Pool.create ~jobs:2 in
  let hits = Atomic.make 0 in
  for _ = 1 to 30 do
    Pool.submit pool (fun () ->
        Thread.delay 0.005;
        Atomic.incr hits)
  done;
  Pool.shutdown pool;
  check Alcotest.int "every accepted task ran" 30 (Atomic.get hits);
  check Alcotest.int "nothing left queued" 0 (Pool.pending pool)

(* ---- Lru ------------------------------------------------------------ *)

let test_lru_capacity_and_eviction () =
  let l = Lru.create ~capacity:3 in
  Lru.put l "a" 1;
  Lru.put l "b" 2;
  Lru.put l "c" 3;
  check Alcotest.int "size" 3 (Lru.size l);
  Lru.put l "d" 4;
  check Alcotest.int "still at capacity" 3 (Lru.size l);
  check Alcotest.(option int) "oldest evicted" None (Lru.get l "a");
  check Alcotest.(option int) "newest kept" (Some 4) (Lru.get l "d")

let test_lru_get_promotes () =
  let l = Lru.create ~capacity:2 in
  Lru.put l "a" 1;
  Lru.put l "b" 2;
  (* Touch "a" so "b" becomes the eviction victim. *)
  ignore (Lru.get l "a");
  Lru.put l "c" 3;
  check Alcotest.(option int) "promoted key kept" (Some 1) (Lru.get l "a");
  check Alcotest.(option int) "lru evicted" None (Lru.get l "b");
  check
    Alcotest.(list string)
    "most-recent first" [ "a"; "c" ]
    (Lru.keys_by_recency l)

let test_lru_overwrite () =
  let l = Lru.create ~capacity:2 in
  Lru.put l "a" 1;
  Lru.put l "a" 9;
  check Alcotest.int "no duplicate" 1 (Lru.size l);
  check Alcotest.(option int) "newest value" (Some 9) (Lru.get l "a")

let test_lru_counters () =
  let l = Lru.create ~capacity:2 in
  Lru.put l "a" 1;
  ignore (Lru.get l "a");
  ignore (Lru.get l "a");
  ignore (Lru.get l "nope");
  check Alcotest.int "hits" 2 (Lru.hits l);
  check Alcotest.int "misses" 1 (Lru.misses l)

let test_lru_bad_capacity () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0))

(* ---- Backoff -------------------------------------------------------- *)

let policy ?(base_s = 0.1) ?(factor = 2.0) ?(max_s = 1.0) ?(jitter = 0.0)
    ?(max_retries = 4) () =
  { Backoff.base_s; factor; max_s; jitter; max_retries }

let test_backoff_validate () =
  Backoff.validate Backoff.default;
  List.iter
    (fun p ->
      match Backoff.validate p with
      | () -> Alcotest.fail "accepted an invalid policy"
      | exception Invalid_argument _ -> ())
    [
      policy ~base_s:0.0 ();
      policy ~factor:0.0 ();
      policy ~jitter:1.5 ();
      policy ~jitter:(-0.1) ();
      policy ~max_retries:(-1) ();
    ]

let test_backoff_delay_schedule () =
  (* Without jitter the schedule is exactly base * factor^attempt,
     capped at max_s. *)
  let p = policy () in
  let rng = Rng.create 1 in
  check (Alcotest.float 1e-9) "attempt 0" 0.1 (Backoff.delay p ~rng ~attempt:0);
  check (Alcotest.float 1e-9) "attempt 1" 0.2 (Backoff.delay p ~rng ~attempt:1);
  check (Alcotest.float 1e-9) "attempt 2" 0.4 (Backoff.delay p ~rng ~attempt:2);
  check (Alcotest.float 1e-9) "capped" 1.0 (Backoff.delay p ~rng ~attempt:9)

let test_backoff_jitter_bounded_and_deterministic () =
  let p = policy ~jitter:0.5 () in
  let play seed =
    let rng = Rng.create seed in
    List.init 100 (fun i -> Backoff.delay p ~rng ~attempt:(i mod 5))
  in
  List.iteri
    (fun i d ->
      let attempt = i mod 5 in
      let base = Float.min (0.1 *. (2.0 ** float_of_int attempt)) 1.0 in
      if d < 0.0 then Alcotest.failf "negative delay %f" d;
      if d > 1.0 +. 1e-9 then Alcotest.failf "delay %f above max_s" d;
      if Float.abs (d -. base) > (0.5 *. base) +. 1e-9 then
        Alcotest.failf "delay %f outside jitter band of %f" d base)
    (play 7);
  check Alcotest.bool "same seed, same delays" true (play 7 = play 7);
  check Alcotest.bool "different seed, different delays" true
    (play 7 <> play 8)

let test_backoff_retry_counts_attempts () =
  let p = policy ~base_s:0.001 ~max_s:0.002 ~max_retries:3 () in
  let rng = Rng.create 2 in
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  (* Exhausting the budget: initial attempt + max_retries retries. *)
  let calls = ref 0 in
  (match
     Backoff.retry p ~rng ~sleep (fun ~attempt ->
         check Alcotest.int "attempt number" !calls attempt;
         incr calls;
         Error "nope")
   with
  | Ok () -> Alcotest.fail "cannot succeed"
  | Error e -> check Alcotest.string "last error" "nope" e);
  check Alcotest.int "initial + retries" 4 !calls;
  check Alcotest.int "one sleep per retry" 3 (List.length !slept);
  (* Success stops the retries immediately. *)
  let calls = ref 0 in
  (match
     Backoff.retry p ~rng ~sleep (fun ~attempt:_ ->
         incr calls;
         if !calls < 3 then Error "transient" else Ok "done")
   with
  | Ok v -> check Alcotest.string "value" "done" v
  | Error _ -> Alcotest.fail "should have succeeded");
  check Alcotest.int "stopped on success" 3 !calls;
  (* A non-retryable error returns without sleeping again. *)
  let calls = ref 0 in
  (match
     Backoff.retry p ~rng ~sleep
       ~retryable:(fun e -> e <> `Fatal)
       (fun ~attempt:_ ->
         incr calls;
         Error `Fatal)
   with
  | Ok _ -> Alcotest.fail "cannot succeed"
  | Error `Fatal -> ());
  check Alcotest.int "fatal error not retried" 1 !calls

(* ---- Fenwick -------------------------------------------------------- *)

let test_fenwick_against_naive () =
  let rng = Rng.create 11 in
  let n = 200 in
  let reference = Array.make n 0 in
  let fen = Fenwick.create n in
  for _ = 1 to 500 do
    let i = Rng.int rng n in
    let delta = Rng.int rng 10 - 5 in
    reference.(i) <- reference.(i) + delta;
    Fenwick.add fen i delta
  done;
  for i = 0 to n - 1 do
    let expected = Array.fold_left ( + ) 0 (Array.sub reference 0 (i + 1)) in
    check Alcotest.int "prefix" expected (Fenwick.prefix_sum fen i)
  done;
  check Alcotest.int "total" (Array.fold_left ( + ) 0 reference)
    (Fenwick.total fen)

let test_fenwick_range () =
  let fen = Fenwick.create 10 in
  Fenwick.add fen 3 5;
  Fenwick.add fen 7 2;
  check Alcotest.int "range" 7 (Fenwick.range_sum fen 0 9);
  check Alcotest.int "range" 5 (Fenwick.range_sum fen 3 3);
  check Alcotest.int "range" 0 (Fenwick.range_sum fen 4 6);
  check Alcotest.int "empty" 0 (Fenwick.range_sum fen 5 4)

(* ---- Reuse ---------------------------------------------------------- *)

let qcheck_trace =
  QCheck.make
    ~print:(fun t -> String.concat "," (List.map string_of_int (Array.to_list t)))
    (QCheck.Gen.map Array.of_list
       QCheck.Gen.(list_size (int_range 1 120) (int_range 0 20)))

let prop_histogram_matches_naive =
  QCheck.Test.make ~name:"reuse histogram matches naive stack distances"
    ~count:200 qcheck_trace (fun trace ->
      let h = Reuse.histogram_of_blocks trace in
      let naive = Testsupport.Naive.stack_distances trace in
      let cold = Array.fold_left (fun a d -> if d < 0 then a + 1 else a) 0 naive in
      let total_entries =
        Array.fold_left (fun a (_, c) -> a + c) 0 h.Reuse.entries
      in
      h.Reuse.cold = cold
      && h.Reuse.total = Array.length trace
      && total_entries + cold = Array.length trace)

let prop_fully_assoc_matches_lru =
  QCheck.Test.make
    ~name:"sets=1 miss count equals a real LRU simulation" ~count:200
    (QCheck.pair qcheck_trace (QCheck.int_range 1 16))
    (fun (trace, capacity) ->
      (* Distances below the quantisation threshold are exact, which holds
         for these small traces. *)
      let h = Reuse.histogram_of_blocks trace in
      let expected = Testsupport.Naive.lru_misses ~capacity trace in
      let got = Reuse.expected_misses h ~sets:1 ~ways:capacity in
      Float.abs (got -. float_of_int expected) < 1e-6)

let test_binomial_tail_against_naive () =
  List.iter
    (fun (n, p, k) ->
      checkf_loose
        (Printf.sprintf "tail n=%d p=%f k=%d" n p k)
        (Testsupport.Naive.binomial_tail_ge ~n ~p ~k)
        (Reuse.binomial_tail_ge ~n ~p ~k))
    [
      (10, 0.5, 3); (10, 0.1, 1); (50, 0.03125, 4); (200, 0.125, 8);
      (5, 0.9, 5); (1, 0.5, 1);
    ]

let test_binomial_tail_edges () =
  checkf "k=0" 1.0 (Reuse.binomial_tail_ge ~n:10 ~p:0.3 ~k:0);
  checkf "k>n" 0.0 (Reuse.binomial_tail_ge ~n:5 ~p:0.3 ~k:6);
  checkf "p=0" 0.0 (Reuse.binomial_tail_ge ~n:5 ~p:0.0 ~k:1);
  checkf "huge n" 1.0 (Reuse.binomial_tail_ge ~n:1_000_000 ~p:0.25 ~k:4)

let test_capacity_model_monotone () =
  let rng = Rng.create 12 in
  let trace = Array.init 2000 (fun _ -> Rng.int rng 300) in
  let h = Reuse.histogram_of_blocks trace in
  let prev = ref infinity in
  List.iter
    (fun cap ->
      let m = Reuse.miss_fraction_capacity h ~capacity_blocks:cap ~ways:4 in
      if m > !prev +. 1e-9 then
        Alcotest.failf "miss fraction not monotone at capacity %d" cap;
      prev := m)
    [ 8; 16; 32; 64; 128; 256; 512 ]

let test_capacity_model_loop_cliff () =
  (* A loop over F blocks: fits when capacity is comfortably above F,
     thrashes when it is below. *)
  let f = 100 in
  let trace = Array.init (f * 20) (fun i -> i mod f) in
  let h = Reuse.histogram_of_blocks trace in
  let fits = Reuse.miss_fraction_capacity h ~capacity_blocks:(2 * f) ~ways:32 in
  let thrash = Reuse.miss_fraction_capacity h ~capacity_blocks:(f / 2) ~ways:32 in
  if fits > 0.1 then Alcotest.failf "loop should fit: %f" fits;
  if thrash < 0.9 then Alcotest.failf "loop should thrash: %f" thrash

let test_merge_histograms () =
  let a = Reuse.histogram_of_blocks [| 1; 2; 1 |] in
  let b = Reuse.histogram_of_blocks [| 3; 3 |] in
  let m = Reuse.merge a b in
  check Alcotest.int "total" 5 m.Reuse.total;
  check Alcotest.int "cold" 3 m.Reuse.cold

(* Entries leave compact/merge sorted strictly ascending by distance:
   the miss models fold over them assuming each bucket appears once,
   and the analytic-vs-simulation comparisons assume a canonical
   order.  (The sort key is the int distance — hashtable keys, hence
   unique — under an explicit Int.compare.) *)
let check_entries_strictly_increasing what (h : Reuse.histogram) =
  Array.iteri
    (fun i (d, c) ->
      if c <= 0 then Alcotest.failf "%s: empty bucket at distance %d" what d;
      if i > 0 && d <= fst h.Reuse.entries.(i - 1) then
        Alcotest.failf "%s: entries not strictly increasing at %d" what i)
    h.Reuse.entries

let test_entries_sorted_and_unique () =
  let rng = Rng.create 31 in
  for trial = 1 to 20 do
    (* Wide-ranging distances so both the exact range and several
       geometric buckets are hit. *)
    let trace = Array.init 3000 (fun _ -> Rng.int rng 700) in
    let h = Reuse.histogram_of_blocks trace in
    check_entries_strictly_increasing
      (Printf.sprintf "trial %d, histogram" trial)
      h;
    let other =
      Reuse.histogram_of_blocks (Array.init 500 (fun _ -> Rng.int rng 900))
    in
    check_entries_strictly_increasing
      (Printf.sprintf "trial %d, merge" trial)
      (Reuse.merge h other)
  done

let test_blocks_of_addresses () =
  let blocks = Reuse.blocks_of_addresses ~block_bytes:32 [| 0; 31; 32; 64 |] in
  check Alcotest.(array int) "blocks" [| 0; 0; 1; 2 |] blocks;
  Alcotest.check_raises "non power of two"
    (Invalid_argument
       "Reuse.blocks_of_addresses: block size must be a power of two")
    (fun () -> ignore (Reuse.blocks_of_addresses ~block_bytes:24 [| 0 |]))

(* ---- Stats ---------------------------------------------------------- *)

let test_mean_median_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  checkf "mean" 2.5 (Stats.mean xs);
  checkf "median" 2.5 (Stats.median xs);
  checkf "p0" 1.0 (Stats.percentile xs 0.0);
  checkf "p100" 4.0 (Stats.percentile xs 100.0);
  checkf "p25" 1.75 (Stats.percentile xs 25.0)

let test_geomean () =
  checkf_loose "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_variance_std () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  checkf "variance" 4.0 (Stats.variance xs);
  checkf "std" 2.0 (Stats.std xs)

let test_pearson () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf_loose "self" 1.0 (Stats.pearson xs xs);
  checkf_loose "negated" (-1.0) (Stats.pearson xs (Array.map (fun x -> -.x) xs));
  checkf "constant" 0.0 (Stats.pearson xs [| 1.0; 1.0; 1.0; 1.0 |])

let test_boxplot () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let b = Stats.boxplot xs in
  checkf "low" 0.0 b.Stats.low;
  checkf "q1" 25.0 b.Stats.q1;
  checkf "med" 50.0 b.Stats.med;
  checkf "q3" 75.0 b.Stats.q3;
  checkf "high" 100.0 b.Stats.high

let test_entropy () =
  checkf "uniform 4" 2.0 (Stats.entropy [| 5; 5; 5; 5 |]);
  checkf "deterministic" 0.0 (Stats.entropy [| 10; 0; 0 |]);
  checkf "empty" 0.0 (Stats.entropy [| 0; 0 |])

let test_mutual_information () =
  (* Perfectly dependent: MI = H = 1 bit. *)
  checkf_loose "dependent" 1.0
    (Stats.mutual_information [| [| 10; 0 |]; [| 0; 10 |] |]);
  checkf_loose "independent" 0.0
    (Stats.mutual_information [| [| 5; 5 |]; [| 5; 5 |] |]);
  checkf_loose "normalised dependent" 1.0
    (Stats.normalised_mutual_information [| [| 10; 0 |]; [| 0; 10 |] |])

let test_quantile_bins () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let edges = Stats.quantile_edges xs 4 in
  check Alcotest.int "edges" 3 (Array.length edges);
  check Alcotest.int "bin of 0" 0 (Stats.bin_index edges 0.0);
  check Alcotest.int "bin of 99" 3 (Stats.bin_index edges 99.0)

let test_zscore () =
  let rows = [| [| 1.0; 10.0 |]; [| 3.0; 10.0 |] |] in
  let n = Stats.zscore_fit rows in
  let z = Stats.zscore_apply n [| 2.0; 10.0 |] in
  checkf "centre" 0.0 z.(0);
  checkf "constant column" 0.0 z.(1)

(* ---- Vec ------------------------------------------------------------ *)

let test_vec_ops () =
  checkf "dot" 11.0 (Vec.dot [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  checkf "l2" 5.0 (Vec.l2_distance [| 0.0; 0.0 |] [| 3.0; 4.0 |]);
  check Alcotest.int "concat" 4
    (Array.length (Vec.concat [| 1.0 |] [| 2.0; 3.0; 4.0 |]));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Vec.dot: length mismatch (2 vs 1)") (fun () ->
      ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0 |]))

(* ---- Reuse quantisation boundaries ----------------------------------- *)

let test_bucket_exact_below_threshold () =
  let t = Reuse.quantise_threshold in
  check Alcotest.int "threshold is 128" 128 t;
  for d = 0 to t do
    check Alcotest.int (Printf.sprintf "bucket %d exact" d) d (Reuse.bucket d)
  done

let test_bucket_boundary () =
  (* The first quantised distances still round down onto the last exact
     representative; the next bucket up is 136 (~6% step). *)
  let t = Reuse.quantise_threshold in
  check Alcotest.int "t-1" (t - 1) (Reuse.bucket (t - 1));
  check Alcotest.int "t" t (Reuse.bucket t);
  check Alcotest.int "t+1 merges down" t (Reuse.bucket (t + 1));
  check Alcotest.int "133 rounds up" 136 (Reuse.bucket 133);
  check Alcotest.int "next bucket" 136 (Reuse.bucket 136)

let test_bucket_geometric_properties () =
  (* Above the threshold: idempotent, monotone (never re-orders
     distances) and within the ~6% design resolution. *)
  let prev = ref 0 in
  for d = 1 to 4096 do
    let b = Reuse.bucket d in
    check Alcotest.int (Printf.sprintf "idempotent %d" d) b (Reuse.bucket b);
    if b < !prev then
      Alcotest.failf "bucket not monotone: bucket %d = %d < %d" d b !prev;
    prev := max !prev b;
    let err = Float.abs (float_of_int b -. float_of_int d) /. float_of_int d in
    if err > 0.0625 then
      Alcotest.failf "bucket %d = %d off by %.1f%%" d b (100. *. err)
  done

let test_histogram_quantises_at_boundary () =
  (* One access at stack distance d: touch d distinct blocks between two
     accesses to block 10_000.  Distances 128 and 129 land in the same
     entry; 127 stays separate. *)
  let trace_with_distance d =
    Array.concat
      [ [| 10_000 |]; Array.init d Fun.id; [| 10_000 |] ]
  in
  let entry_of d =
    let h = Reuse.histogram_of_blocks (trace_with_distance d) in
    (* All accesses but the last are cold. *)
    check Alcotest.int "cold" (d + 1) h.Reuse.cold;
    check Alcotest.int "total" (d + 2) h.Reuse.total;
    check Alcotest.int "one warm entry" 1 (Array.length h.Reuse.entries);
    fst h.Reuse.entries.(0)
  in
  check Alcotest.int "127 exact" 127 (entry_of 127);
  check Alcotest.int "128 exact" 128 (entry_of 128);
  check Alcotest.int "129 merged into 128" 128 (entry_of 129)

(* ---- Texttab / Ibuf -------------------------------------------------- *)

let test_table_render () =
  let s = Texttab.render_table ~header:[ "a"; "bb" ] [ [ "1"; "2" ] ] in
  if not (String.length s > 0 && String.contains s 'a') then
    Alcotest.fail "table rendering broken"

let test_hinton_ladder () =
  check Alcotest.string "zero" "   " (Texttab.hinton_cell 0.0);
  check Alcotest.string "one" "[#]" (Texttab.hinton_cell 1.0);
  check Alcotest.string "clamped" "[#]" (Texttab.hinton_cell 2.0)

let test_ibuf () =
  let b = Ibuf.create ~capacity:2 () in
  for i = 0 to 99 do
    Ibuf.push b i
  done;
  check Alcotest.int "length" 100 (Ibuf.length b);
  check Alcotest.int "get" 57 (Ibuf.get b 57);
  check Alcotest.(option int) "last" (Some 99) (Ibuf.last b);
  check Alcotest.(array int) "to_array" (Array.init 100 Fun.id) (Ibuf.to_array b);
  Ibuf.clear b;
  check Alcotest.int "cleared" 0 (Ibuf.length b)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          quick "determinism" test_rng_determinism;
          quick "bounds" test_rng_bounds;
          quick "split" test_rng_split_independent;
          quick "float range" test_rng_float_range;
          quick "sample without replacement" test_sample_without_replacement;
          quick "sample full population" test_sample_full_population;
          quick "shuffle is a permutation" test_shuffle_permutation;
          quick "gaussian moments" test_gaussian_moments;
          quick "chi-square uniformity" test_rng_chi_square_uniform;
          quick "huge bound in range" test_rng_int_huge_bound;
        ] );
      ( "pool",
        [
          quick "matches sequential" test_pool_matches_sequential;
          quick "size one is inline" test_pool_sequential_size_one;
          quick "empty and reuse" test_pool_empty_and_reuse;
          quick "exception lowest index" test_pool_exception_lowest_index;
          quick "nested use rejected" test_pool_nested_use_rejected;
          quick "deterministic across widths" test_pool_parallel_work_is_deterministic;
          quick "submit after shutdown raises Closed"
            test_pool_submit_after_shutdown_raises;
          quick "shutdown drains the queue" test_pool_shutdown_drains_queue;
        ] );
      ( "lru",
        [
          quick "capacity and eviction" test_lru_capacity_and_eviction;
          quick "get promotes" test_lru_get_promotes;
          quick "overwrite" test_lru_overwrite;
          quick "hit/miss counters" test_lru_counters;
          quick "bad capacity" test_lru_bad_capacity;
        ] );
      ( "backoff",
        [
          quick "validate" test_backoff_validate;
          quick "delay schedule" test_backoff_delay_schedule;
          quick "jitter bounded and deterministic"
            test_backoff_jitter_bounded_and_deterministic;
          quick "retry counts attempts" test_backoff_retry_counts_attempts;
        ] );
      ( "fenwick",
        [
          quick "against naive" test_fenwick_against_naive;
          quick "ranges" test_fenwick_range;
        ] );
      ( "reuse",
        [
          QCheck_alcotest.to_alcotest prop_histogram_matches_naive;
          QCheck_alcotest.to_alcotest prop_fully_assoc_matches_lru;
          quick "binomial tail vs naive" test_binomial_tail_against_naive;
          quick "binomial tail edge cases" test_binomial_tail_edges;
          quick "capacity model monotone" test_capacity_model_monotone;
          quick "capacity model loop cliff" test_capacity_model_loop_cliff;
          quick "merge" test_merge_histograms;
          quick "entries sorted and unique" test_entries_sorted_and_unique;
          quick "blocks of addresses" test_blocks_of_addresses;
          quick "bucket exact below threshold" test_bucket_exact_below_threshold;
          quick "bucket threshold boundary" test_bucket_boundary;
          quick "bucket geometric properties" test_bucket_geometric_properties;
          quick "histogram boundary quantisation" test_histogram_quantises_at_boundary;
        ] );
      ( "stats",
        [
          quick "mean/median/percentile" test_mean_median_percentile;
          quick "geomean" test_geomean;
          quick "variance/std" test_variance_std;
          quick "pearson" test_pearson;
          quick "boxplot" test_boxplot;
          quick "entropy" test_entropy;
          quick "mutual information" test_mutual_information;
          quick "quantile bins" test_quantile_bins;
          quick "zscore" test_zscore;
        ] );
      ( "vec",
        [ quick "operations" test_vec_ops ] );
      ( "render",
        [
          quick "table" test_table_render;
          quick "hinton ladder" test_hinton_ladder;
          quick "ibuf" test_ibuf;
        ] );
    ]
