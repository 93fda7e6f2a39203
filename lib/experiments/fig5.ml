(** Figure 5: the speedup surface over programs x microarchitectures —
    (a) best sampled optimisations, (b) the model's predictions — plus the
    correlation coefficient between the two (0.93 in the paper). *)

open Prelude

let heat_row values lo hi =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun v ->
            let x = if hi <= lo then 0.0 else (v -. lo) /. (hi -. lo) in
            Texttab.heat_cell x)
          values))

let render ctx =
  let d = Context.dataset ctx in
  let o = Context.outcomes ctx in
  let porder = Context.order ctx Context.Program in
  let uorder = Context.order ctx Context.Uarch in
  let names = Context.program_names ctx in
  let nu = Ml_model.Dataset.n_uarchs d in
  let best = Array.make_matrix (Array.length porder) nu 0.0 in
  let model = Array.make_matrix (Array.length porder) nu 0.0 in
  Array.iter
    (fun (x : Ml_model.Crossval.outcome) ->
      let pi = ref 0 and ui = ref 0 in
      Array.iteri (fun i p -> if p = x.prog then pi := i) porder;
      Array.iteri (fun i u -> if u = x.uarch then ui := i) uorder;
      best.(!pi).(!ui) <- Ml_model.Crossval.best_speedup x;
      model.(!pi).(!ui) <- Ml_model.Crossval.speedup x)
    o;
  let flat m = Array.concat (Array.to_list m) in
  let all = Array.append (flat best) (flat model) in
  let lo, hi = Stats.min_max all in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "Figure 5: speedup over -O3 per program/microarchitecture pair\n\
     (rows = programs sorted by headroom; columns = configurations sorted\n\
     by available speedup; darker = faster)\n\n";
  Buffer.add_string buf "(a) best sampled optimisations        (b) our model\n";
  Array.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf "%-12s |%s|  |%s|\n" names.(p)
           (heat_row best.(i) lo hi)
           (heat_row model.(i) lo hi)))
    porder;
  let r = Stats.pearson (flat best) (flat model) in
  Buffer.add_string buf
    (Printf.sprintf
       "\nCorrelation between predicted and best speedups (paper: 0.93): \
        %.3f\n"
       r);
  Buffer.contents buf

(** The correlation alone, for the summary table. *)
let correlation ctx =
  let o = Context.outcomes ctx in
  Stats.pearson
    (Array.map Ml_model.Crossval.best_speedup o)
    (Array.map Ml_model.Crossval.speedup o)
