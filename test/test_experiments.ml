(* Smoke tests for the experiment drivers at a tiny scale: every figure
   must render non-trivially and report internally consistent numbers. *)

let check = Alcotest.check

let tiny_scale space =
  {
    Ml_model.Dataset.n_uarchs = 3;
    n_opts = 10;
    seed = 23;
    space;
    good_fraction = 0.1;
  }

let ctx =
  lazy
    (Experiments.Context.create ~scale:(tiny_scale Ml_model.Features.Base) ())

let ctx_ext =
  lazy
    (Experiments.Context.create
       ~scale:(tiny_scale Ml_model.Features.Extended)
       ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let rendered name render =
  let s = render () in
  if String.length s < 100 then Alcotest.failf "%s rendered almost nothing" name;
  s

let test_fig1 () =
  let s = rendered "fig1" (fun () -> Experiments.Fig1.render (Lazy.force ctx)) in
  check Alcotest.bool "mentions rijndael" true (contains s "rijndael_e")

let test_fig4 () =
  let s = rendered "fig4" (fun () -> Experiments.Fig4.render (Lazy.force ctx)) in
  check Alcotest.bool "has AVERAGE" true (contains s "AVERAGE")

let test_fig5 () =
  let s = rendered "fig5" (fun () -> Experiments.Fig5.render (Lazy.force ctx)) in
  check Alcotest.bool "reports correlation" true (contains s "Correlation");
  let r = Experiments.Fig5.correlation (Lazy.force ctx) in
  check Alcotest.bool "correlation in range" true (r >= -1.0 && r <= 1.0)

let test_fig6 () =
  let s = rendered "fig6" (fun () -> Experiments.Fig6.render (Lazy.force ctx)) in
  check Alcotest.bool "lists search" true (contains s "search");
  let model, best = Experiments.Fig6.averages (Lazy.force ctx) in
  check Alcotest.bool "model <= best + eps" true (model <= best +. 0.05);
  check Alcotest.bool "positive speedups" true (model > 0.5 && best > 0.5)

let test_fig7 () =
  let s = rendered "fig7" (fun () -> Experiments.Fig7.render (Lazy.force ctx)) in
  check Alcotest.bool "mentions model range" true (contains s "Model range")

let test_fig8 () =
  let s = rendered "fig8" (fun () -> Experiments.Fig8.render (Lazy.force ctx)) in
  check Alcotest.bool "mentions schedule flag" true (contains s "fschedule_insns")

let test_fig9 () =
  let s = rendered "fig9" (fun () -> Experiments.Fig9.render (Lazy.force ctx)) in
  check Alcotest.bool "mentions i_size" true (contains s "i_size")

let test_fig10 () =
  let s =
    rendered "fig10" (fun () -> Experiments.Fig10.render (Lazy.force ctx_ext))
  in
  check Alcotest.bool "has AVERAGE" true (contains s "AVERAGE")

let test_convergence () =
  let s =
    rendered "convergence" (fun () ->
        Experiments.Convergence.render (Lazy.force ctx))
  in
  check Alcotest.bool "reports average" true (contains s "Average over all pairs")

let test_summary () =
  let s =
    rendered "summary" (fun () -> Experiments.Summary.render (Lazy.force ctx))
  in
  check Alcotest.bool "headline table" true (contains s "fraction of headroom");
  check Alcotest.bool "space table" true (contains s "288000")

(* ---- Oracle: the hand-rolled leave-one-out loop ----------------------

   The sequential loop the ablation bench ran on before every row went
   through [Crossval.run] and the shipped model: its own mask, z-score
   fit, list sort of the neighbours and softmax, over a distribution
   family.  Kept as the reference the rows are checked against. *)

type 'g scheme = {
  fit : Passes.Flags.setting array -> 'g;
  mix : (float * 'g) list -> 'g;
  mode : 'g -> Passes.Flags.setting;
}

let iid_scheme =
  {
    fit = (fun good -> Ml_model.Distribution.fit good);
    mix = Ml_model.Distribution.mix;
    mode = Ml_model.Distribution.mode;
  }

let chain_scheme =
  {
    fit = (fun good -> Ml_model.Chain_model.fit good);
    mix = Ml_model.Chain_model.mix;
    mode = Ml_model.Chain_model.mode;
  }

(* One predicted setting per fold, in row-major pair order. *)
let oracle_predictions ?features ?training_subset (d : Ml_model.Dataset.t)
    scheme ~k ~beta ~good_fraction ~mask =
  let n_prog = Ml_model.Dataset.n_programs d in
  let n_uarch = Ml_model.Dataset.n_uarchs d in
  let feature_of =
    match features with
    | Some f -> f
    | None ->
      fun (p : Ml_model.Dataset.pair) -> p.Ml_model.Dataset.features_raw
  in
  let in_subset =
    match training_subset with
    | None -> fun _ -> true
    | Some idxs ->
      let set = Hashtbl.create 64 in
      Array.iter (fun i -> Hashtbl.replace set i ()) idxs;
      fun pair_index -> Hashtbl.mem set pair_index
  in
  let mask_row row =
    match mask with
    | None -> row
    | Some m ->
      let out = ref [] in
      Array.iteri (fun i keep -> if keep then out := row.(i) :: !out) m;
      Array.of_list (List.rev !out)
  in
  let dists =
    Array.map
      (fun (p : Ml_model.Dataset.pair) ->
        let good =
          Ml_model.Dataset.good_set ~good_fraction p.Ml_model.Dataset.times
        in
        scheme.fit
          (Array.map (fun i -> d.Ml_model.Dataset.settings.(i)) good))
      d.Ml_model.Dataset.pairs
  in
  Array.init (n_prog * n_uarch) (fun idx ->
      let prog = idx / n_uarch and uarch = idx mod n_uarch in
      let training =
        Array.to_list d.Ml_model.Dataset.pairs
        |> List.filteri (fun i (p : Ml_model.Dataset.pair) ->
               in_subset i
               && p.Ml_model.Dataset.prog_index <> prog
               && p.Ml_model.Dataset.uarch_index <> uarch)
      in
      let rows =
        Array.of_list
          (List.map
             (fun (p : Ml_model.Dataset.pair) -> mask_row (feature_of p))
             training)
      in
      let normaliser = Prelude.Stats.zscore_fit rows in
      let feats = Array.map (Prelude.Stats.zscore_apply normaliser) rows in
      let test = Ml_model.Dataset.pair d ~prog ~uarch in
      let x =
        Prelude.Stats.zscore_apply normaliser (mask_row (feature_of test))
      in
      let dist_of (p : Ml_model.Dataset.pair) =
        dists.((p.Ml_model.Dataset.prog_index * n_uarch)
               + p.Ml_model.Dataset.uarch_index)
      in
      let scored =
        List.mapi
          (fun i p -> (Prelude.Vec.l2_distance feats.(i) x, dist_of p))
          training
      in
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) scored in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      let neighbours = take k sorted in
      let dmin = match neighbours with (d0, _) :: _ -> d0 | [] -> 0.0 in
      let weighted =
        List.map
          (fun (dst, g) -> (exp (-.beta *. (dst -. dmin)), g))
          neighbours
      in
      scheme.mode (scheme.mix weighted))

(* Each fold's prediction timed on its held-out pair. *)
let oracle_outcomes (d : Ml_model.Dataset.t) predictions =
  let n_uarch = Ml_model.Dataset.n_uarchs d in
  Array.mapi
    (fun idx predicted ->
      let prog = idx / n_uarch and uarch = idx mod n_uarch in
      let test = Ml_model.Dataset.pair d ~prog ~uarch in
      {
        Ml_model.Crossval.prog;
        uarch;
        predicted;
        o3_seconds = test.Ml_model.Dataset.o3_seconds;
        predicted_seconds = Ml_model.Dataset.evaluate d ~prog ~uarch predicted;
        best_seconds = test.Ml_model.Dataset.best_seconds;
      })
    predictions

let crossval_with ?features ?training_subset d scheme ~k ~beta ~good_fraction
    ~mask =
  oracle_outcomes d
    (oracle_predictions ?features ?training_subset d scheme ~k ~beta
       ~good_fraction ~mask)

(* The oracle's predictions for every ablation row, in the table's
   order, at any good-set fraction. *)
let oracle_rows (d : Ml_model.Dataset.t) =
  let iid ?(k = 7) ?(beta = 1.0) ?mask ?features ?training_subset () =
    fun ~good_fraction ->
    oracle_predictions ?features ?training_subset d iid_scheme ~k ~beta
      ~good_fraction ~mask
  in
  let n_pairs = Array.length d.Ml_model.Dataset.pairs in
  let n_features =
    Array.length d.Ml_model.Dataset.pairs.(0).Ml_model.Dataset.features_raw
  in
  let n_desc =
    Ml_model.Features.descriptor_dim
      d.Ml_model.Dataset.scale.Ml_model.Dataset.space
  in
  let medoids part =
    Ml_model.Clustering.select_training_pairs
      ~rng:(Prelude.Rng.create 4242) ~k:(max 7 (n_pairs / part)) d
  in
  let static =
    lazy
      (Array.map
         (fun spec ->
           Ml_model.Static_features.of_program
             (Passes.Driver.compile ~setting:Passes.Flags.o3
                (Workloads.Mibench.program_of spec)))
         d.Ml_model.Dataset.specs)
  in
  let static_features (p : Ml_model.Dataset.pair) =
    let u = d.Ml_model.Dataset.uarchs.(p.Ml_model.Dataset.uarch_index) in
    let desc =
      match d.Ml_model.Dataset.scale.Ml_model.Dataset.space with
      | Ml_model.Features.Base -> Uarch.Config.descriptors u
      | Ml_model.Features.Extended -> Uarch.Config.descriptors_extended u
    in
    Prelude.Vec.concat desc
      (Lazy.force static).(p.Ml_model.Dataset.prog_index)
  in
  [ ("baseline (K=7, b=1, top 5%, IID)", iid ()) ]
  @ List.map
      (fun k -> (Printf.sprintf "K=%d" k, iid ~k ()))
      [ 1; 3; 5; 11; 15 ]
  @ List.map
      (fun beta -> (Printf.sprintf "beta=%.2f" beta, iid ~beta ()))
      [ 0.25; 4.0 ]
  @ List.map
      (fun f ->
        (Printf.sprintf "good set = top %.0f%%" (100.0 *. f), iid ()))
      [ 0.01; 0.02; 0.10; 0.20 ]
  @ [
      ( "Markov-chain distribution",
        fun ~good_fraction ->
          oracle_predictions d chain_scheme ~k:7 ~beta:1.0 ~good_fraction
            ~mask:None );
      ( "counters only",
        iid ~mask:(Array.init n_features (fun i -> i >= n_desc)) () );
      ( "descriptors only",
        iid ~mask:(Array.init n_features (fun i -> i < n_desc)) () );
      ( "clustered training (1/2 medoids)",
        iid ~training_subset:(medoids 2) () );
      ( "clustered training (1/4 medoids)",
        iid ~training_subset:(medoids 4) () );
      ( "static code features (no profile run)",
        iid ~features:static_features () );
    ]

let same_outcomes what (a : Ml_model.Crossval.outcome array)
    (b : Ml_model.Crossval.outcome array) =
  check Alcotest.int (what ^ ": folds") (Array.length b) (Array.length a);
  let bits = Int64.bits_of_float in
  Array.iteri
    (fun i (x : Ml_model.Crossval.outcome) ->
      let y = b.(i) in
      if
        x.prog <> y.prog || x.uarch <> y.uarch
        || x.predicted <> y.predicted
        || bits x.predicted_seconds <> bits y.predicted_seconds
        || bits x.o3_seconds <> bits y.o3_seconds
        || bits x.best_seconds <> bits y.best_seconds
      then Alcotest.failf "%s: fold %d differs" what i)
    a

let test_ablation_schemes_agree_on_validity () =
  let d = Experiments.Context.dataset (Lazy.force ctx) in
  let outcomes =
    crossval_with d iid_scheme ~k:3 ~beta:1.0 ~good_fraction:0.1 ~mask:None
  in
  check Alcotest.int "one per pair" (35 * 3) (Array.length outcomes);
  let chain =
    crossval_with d chain_scheme ~k:3 ~beta:1.0 ~good_fraction:0.1 ~mask:None
  in
  check Alcotest.int "chain too" (35 * 3) (Array.length chain)

let ablation_rows () =
  let d = Experiments.Context.dataset (Lazy.force ctx) in
  let oracle = oracle_rows d in
  check
    Alcotest.(list string)
    "row names" (List.map fst oracle)
    (List.map (fun r -> r.Experiments.Ablation.name) Experiments.Ablation.rows);
  (d, List.combine Experiments.Ablation.rows (List.map snd oracle))

let test_ablation_rows_match_oracle () =
  let d, rows = ablation_rows () in
  List.iter
    (fun ((r : Experiments.Ablation.row), oracle) ->
      same_outcomes r.name
        (Experiments.Ablation.outcomes d r)
        (oracle_outcomes d (oracle ~good_fraction:r.good_fraction)))
    rows

(* At the tiny scale's 10 settings a 5% good set is one setting, where
   an IID and a Markov mixture predict alike; at half the settings they
   do not.  Each row's fold predictor is called directly under
   [Crossval.run]'s training rule, so the check prices nothing. *)
let test_ablation_predictors_at_half () =
  let d, rows = ablation_rows () in
  let half = Ml_model.Dataset.with_good_fraction d 0.5 in
  let n_uarch = Ml_model.Dataset.n_uarchs d in
  let predictions (r : Experiments.Ablation.row) =
    let predict = r.predict half in
    Array.init (Array.length half.Ml_model.Dataset.pairs) (fun idx ->
        let prog = idx / n_uarch and uarch = idx mod n_uarch in
        predict
          ~include_pair:(fun ~prog:p ~uarch:u -> p <> prog && u <> uarch)
          ~prog ~uarch)
  in
  let predicted =
    List.map
      (fun ((r : Experiments.Ablation.row), oracle) ->
        let mine = predictions r and theirs = oracle ~good_fraction:0.5 in
        check Alcotest.int (r.name ^ " at 0.5: folds") (Array.length theirs)
          (Array.length mine);
        Array.iteri
          (fun i s ->
            if s <> theirs.(i) then
              Alcotest.failf "%s at 0.5: fold %d differs" r.name i)
          mine;
        (r.name, mine))
      rows
  in
  check Alcotest.bool "Markov and IID differ at 0.5" true
    (List.assoc "Markov-chain distribution" predicted
    <> List.assoc "baseline (K=7, b=1, top 5%, IID)" predicted)

let test_csv_export () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "portopt_csv_test" in
  let paths = Experiments.Export.all (Lazy.force ctx) ~dir in
  check Alcotest.int "four files" 4 (List.length paths);
  List.iter
    (fun p ->
      let ic = open_in p in
      let header = input_line ic in
      close_in ic;
      check Alcotest.bool "has header" true (String.length header > 5))
    paths

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "experiments"
    [
      ( "figures",
        [
          quick "fig1" test_fig1;
          quick "fig4" test_fig4;
          quick "fig5" test_fig5;
          quick "fig6" test_fig6;
          quick "fig7" test_fig7;
          quick "fig8" test_fig8;
          quick "fig9" test_fig9;
          quick "fig10" test_fig10;
          quick "convergence" test_convergence;
          quick "summary" test_summary;
        ] );
      ( "ablation",
        [
          quick "schemes run" test_ablation_schemes_agree_on_validity;
          quick "rows match the oracle" test_ablation_rows_match_oracle;
          quick "predictors match the oracle at 0.5"
            test_ablation_predictors_at_half;
        ] );
      ( "export", [ quick "csv files" test_csv_export ] );
    ]
