(** Ablations of the design choices DESIGN.md calls out:

    - K and beta of the nearest-neighbour mixture (the paper states the
      technique is insensitive around K = 7, beta = 1);
    - the good-set threshold (top 5% in the paper's footnote 1);
    - the IID factorisation against a first-order Markov-chain
      distribution (section 3.3.1's "more complicated distributions");
    - the feature set: full x = (c, d) against counters-only and
      descriptors-only;
    - the paper's two future-work directions: clustering the training
      set down to medoids (section 3.2/9) and replacing the profile-run
      counters with static code features (section 9).

    Every variant is one [Crossval.run] on the shared dataset, refit at
    the row's good-set fraction, with the row's own [predict], so it
    measures the model the system ships under the protocol of the rest
    of the evaluation.
    Each reports the mean speedup and the fraction of the
    iterative-compilation headroom captured. *)

open Prelude
open Ml_model

type row = {
  name : string;
  good_fraction : float;  (** Top fraction the row's good sets keep. *)
  predict : Dataset.t -> Crossval.predict;
      (** The row's fold predictor over the shared dataset refit at
          [good_fraction] ({!Dataset.with_good_fraction}). *)
}

(* Each row refits the dataset at its own fraction, so a row does not
   depend on the fraction the dataset was generated at. *)
let outcomes d r =
  let d = Dataset.with_good_fraction d r.good_fraction in
  Crossval.run ~predict:(r.predict d) d

(* The shipped model with its options varied, trained on the fold's
   pairs that also pass [subset]. *)
let knn ?k ?beta ?mask ?(subset = fun ~prog:_ ~uarch:_ -> true) d
    ~include_pair ~prog ~uarch =
  let include_pair ~prog ~uarch =
    include_pair ~prog ~uarch && subset ~prog ~uarch
  in
  Model.predict
    (Model.train ?k ?beta ?mask ~include_pair d)
    (Dataset.pair d ~prog ~uarch).Dataset.features_raw

(* The model's neighbours and weights mixing Markov chains fitted to
   the same good sets.  Model row i is pair [sel.(i)]. *)
let markov (d : Dataset.t) =
  let chains =
    Array.map
      (fun (p : Dataset.pair) ->
        Chain_model.fit
          (Array.map (fun i -> d.Dataset.settings.(i)) p.Dataset.good))
      d.Dataset.pairs
  in
  fun ~include_pair ~prog ~uarch ->
    let sel =
      List.init (Array.length d.Dataset.pairs) Fun.id
      |> List.filter (fun i ->
             let p = d.Dataset.pairs.(i) in
             include_pair ~prog:p.Dataset.prog_index
               ~uarch:p.Dataset.uarch_index)
      |> Array.of_list
    in
    let pick f = Array.map (fun i -> f d.Dataset.pairs.(i)) sel in
    let model =
      Model.of_parts
        ~features_raw:(pick (fun p -> p.Dataset.features_raw))
        ~distributions:(pick (fun p -> p.Dataset.distribution))
        ()
    in
    let x = (Dataset.pair d ~prog ~uarch).Dataset.features_raw in
    let r = Model.predict_full model x in
    Chain_model.mode
      (Chain_model.mix
         (Array.to_list
            (Array.map
               (fun nb -> (nb.Predict.weight, chains.(sel.(nb.Predict.index))))
               r.Predict.neighbours)))

(* The microarchitecture descriptors lead every feature row. *)
let n_desc (d : Dataset.t) =
  Features.descriptor_dim d.Dataset.scale.Dataset.space

let mask (d : Dataset.t) ~counters =
  Array.init
    (Array.length d.Dataset.pairs.(0).Dataset.features_raw)
    (fun i -> (i >= n_desc d) = counters)

(* Training on the k-means medoids of 1/[part] of the pairs. *)
let clustered ~part (d : Dataset.t) =
  let n_uarch = Dataset.n_uarchs d in
  let k = max 7 (Array.length d.Dataset.pairs / part) in
  let medoid = Array.make (Array.length d.Dataset.pairs) false in
  Array.iter
    (fun i -> medoid.(i) <- true)
    (Clustering.select_training_pairs ~rng:(Rng.create 4242) ~k d);
  knn d ~subset:(fun ~prog ~uarch -> medoid.((prog * n_uarch) + uarch))

(* A copy whose counters are replaced by static features of each
   program's -O3 binary, computed once, after the descriptors.  It
   shares every time with [d], so a predictor trained on it is priced
   on [d] as on the copy. *)
let static_features (d : Dataset.t) =
  let static =
    Array.map
      (fun spec ->
        Static_features.of_program
          (Passes.Driver.compile ~setting:Passes.Flags.o3
             (Workloads.Mibench.program_of spec)))
      d.Dataset.specs
  in
  let pairs =
    Array.map
      (fun (p : Dataset.pair) ->
        let desc = Array.sub p.Dataset.features_raw 0 (n_desc d) in
        let features_raw = Vec.concat desc static.(p.Dataset.prog_index) in
        { p with Dataset.features_raw })
      d.Dataset.pairs
  in
  { d with Dataset.pairs }

let row ?(good_fraction = 0.05) name predict = { name; good_fraction; predict }

let rows =
  [ row "baseline (K=7, b=1, top 5%, IID)" (fun d -> knn d) ]
  @ List.map
      (fun k -> row (Printf.sprintf "K=%d" k) (fun d -> knn ~k d))
      [ 1; 3; 5; 11; 15 ]
  @ List.map
      (fun beta -> row (Printf.sprintf "beta=%.2f" beta) (fun d -> knn ~beta d))
      [ 0.25; 4.0 ]
  @ List.map
      (fun f ->
        row ~good_fraction:f
          (Printf.sprintf "good set = top %.0f%%" (100.0 *. f))
          (fun d -> knn d))
      [ 0.01; 0.02; 0.10; 0.20 ]
  @ [
      row "Markov-chain distribution" markov;
      row "counters only" (fun d -> knn ~mask:(mask d ~counters:true) d);
      row "descriptors only" (fun d -> knn ~mask:(mask d ~counters:false) d);
      row "clustered training (1/2 medoids)" (clustered ~part:2);
      row "clustered training (1/4 medoids)" (clustered ~part:4);
      row "static code features (no profile run)" (fun d ->
          knn (static_features d));
    ]

let render ctx =
  let d = Context.dataset ctx in
  let table =
    List.map
      (fun r ->
        let o = outcomes d r in
        [
          r.name;
          Texttab.fixed ~digits:3 (Stats.mean (Array.map Crossval.speedup o));
          Printf.sprintf "%.0f%%" (100.0 *. Crossval.fraction_of_best o);
        ])
      rows
  in
  "Ablations (leave-one-out, shared dataset)\n\n"
  ^ Texttab.render_table
      ~header:[ "variant"; "mean speedup"; "% of headroom" ]
      table
  ^ "\nThe paper's claims to check: insensitivity around K=7/beta=1, the\n\
     adequacy of the IID factorisation, and that counters and descriptors\n\
     both carry signal.\n"
