(** Figure 6: per-program speedup of the model against the best sampled
    optimisations, averaged over all microarchitectures.  Paper headline:
    model 1.16x mean vs best 1.23x, with search the largest winner
    (1.94x). *)

open Prelude

let render ctx =
  let order = Context.order ctx Context.Program in
  let names = Context.program_names ctx in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Figure 6: speedup over -O3 per program (mean over configurations)\n\n";
  let max_s = ref 1.0 in
  let rows =
    Array.map
      (fun p ->
        let model, best = Context.speedups ctx Context.Program p in
        max_s := Float.max !max_s best;
        (p, model, best))
      order
  in
  Buffer.add_string buf
    (Texttab.render_table
       ~header:[ "program"; "model"; "best"; "model |" ]
       (Array.to_list
          (Array.map
             (fun (p, model, best) ->
               [
                 names.(p);
                 Texttab.fixed model;
                 Texttab.fixed best;
                 Texttab.bar ~width:30 (model -. 0.9) (!max_s -. 0.9);
               ])
             rows)));
  let models = Array.map (fun (_, m, _) -> m) rows in
  let bests = Array.map (fun (_, _, b) -> b) rows in
  Buffer.add_string buf
    (Printf.sprintf
       "\nAVERAGE: model %.3fx (paper: 1.16x), best %.3fx (paper: 1.23x)\n"
       (Stats.mean models) (Stats.mean bests));
  Buffer.contents buf

let averages ctx =
  let order = Context.order ctx Context.Program in
  let pairs = Array.map (Context.speedups ctx Context.Program) order in
  ( Stats.mean (Array.map fst pairs),
    Stats.mean (Array.map snd pairs) )
