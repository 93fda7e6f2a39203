(** Figure 10 / section 7: the extended microarchitecture space (frequency
    200–600 MHz, issue width 1–2).  The same protocol as figure 6 runs on
    a fresh sample of the extended space with 10-dimensional descriptors;
    the paper reports best 1.24x and model 1.14x, i.e. no loss of
    portability when the space grows. *)

open Prelude

let render (ext : Context.t) =
  assert (ext.Context.scale.Ml_model.Dataset.space = Ml_model.Features.Extended);
  let order = Context.order ext Context.Program in
  let names = Context.program_names ext in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Figure 10: extended space (frequency + issue width) — speedup over\n\
     -O3 per program, mean over configurations\n\n";
  let rows =
    Array.map
      (fun p ->
        let model, best = Context.speedups ext Context.Program p in
        (p, model, best))
      order
  in
  Buffer.add_string buf
    (Texttab.render_table
       ~header:[ "program"; "model"; "best" ]
       (Array.to_list
          (Array.map
             (fun (p, model, best) ->
               [ names.(p); Texttab.fixed model; Texttab.fixed best ])
             rows)));
  let models = Array.map (fun (_, m, _) -> m) rows in
  let bests = Array.map (fun (_, _, b) -> b) rows in
  Buffer.add_string buf
    (Printf.sprintf
       "\nAVERAGE: model %.3fx (paper: 1.14x), best %.3fx (paper: 1.24x)\n"
       (Stats.mean models) (Stats.mean bests));
  Buffer.contents buf
