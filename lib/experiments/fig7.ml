(** Figure 7: per-microarchitecture speedup (mean over programs) of the
    model against the best sampled optimisations, configurations sorted by
    available speedup.  The paper reads three regions off this plot: a
    flat left region dominated by small data caches, a middle plateau, and
    a steep right region of small instruction caches. *)

open Prelude

let render ctx =
  let d = Context.dataset ctx in
  let uorder = Context.order ctx Context.Uarch in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Figure 7: speedup over -O3 per microarchitecture (mean over \
     programs),\nsorted by available speedup\n\n";
  let rows =
    Array.map
      (fun u ->
        let model, best = Context.speedups ctx Context.Uarch u in
        (u, model, best))
      uorder
  in
  let max_b =
    Array.fold_left (fun acc (_, _, b) -> Float.max acc b) 1.0 rows
  in
  Buffer.add_string buf
    (Texttab.render_table
       ~header:[ "#"; "configuration"; "model"; "best"; "best |" ]
       (Array.to_list
          (Array.mapi
             (fun i (u, model, best) ->
               [
                 string_of_int i;
                 Uarch.Config.to_string d.Ml_model.Dataset.uarchs.(u);
                 Texttab.fixed model;
                 Texttab.fixed best;
                 Texttab.bar ~width:26 (best -. 0.95) (max_b -. 0.95);
               ])
             rows)));
  let models = Array.map (fun (_, m, _) -> m) rows in
  let bests = Array.map (fun (_, _, b) -> b) rows in
  Buffer.add_string buf
    (Printf.sprintf
       "\nModel range %.2fx..%.2fx (paper: 1.08x..1.35x); mean %.3fx.\n"
       (fst (Stats.min_max models))
       (snd (Stats.min_max models))
       (Stats.mean models));
  (* Region analysis: correlate position in the order with I-cache and
     D-cache size, echoing the paper's reading. *)
  let small d = float_of_int d in
  let dsizes =
    Array.map (fun (u, _, _) -> small d.Ml_model.Dataset.uarchs.(u).Uarch.Config.dl1_size) rows
  in
  let isizes =
    Array.map (fun (u, _, _) -> small d.Ml_model.Dataset.uarchs.(u).Uarch.Config.il1_size) rows
  in
  let pos = Array.mapi (fun i _ -> float_of_int i) rows in
  Buffer.add_string buf
    (Printf.sprintf
       "Correlation of rank with D-cache size: %+.2f; with I-cache size: \
        %+.2f\n(paper: small-D configs flat on the left, small-I configs \
        steep on the right).\n"
       (Stats.pearson pos dsizes) (Stats.pearson pos isizes));
  Buffer.add_string buf
    (Printf.sprintf "Best mean over configurations: %.3fx\n"
       (Stats.mean bests));
  Buffer.contents buf
