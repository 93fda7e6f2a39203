(** Figure 4: distribution of the maximum available speedup over -O3, per
    program, across the sampled microarchitectures (box plots), plus the
    AVERAGE entry the paper quotes as 1.23x. *)

open Prelude

let render ctx =
  let d = Context.dataset ctx in
  let order = Context.order ctx Context.Program in
  let names = Context.program_names ctx in
  let nu = Ml_model.Dataset.n_uarchs d in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Figure 4: distribution of maximum speedup over -O3 per program\n\
     (best sampled optimisation setting, across microarchitectures)\n\n";
  let all = ref [] in
  let lo = ref infinity and hi = ref neg_infinity in
  let per_program =
    Array.map
      (fun p ->
        let xs =
          Array.init nu (fun u ->
              Ml_model.Dataset.best_speedup
                (Ml_model.Dataset.pair d ~prog:p ~uarch:u))
        in
        all := Array.to_list xs @ !all;
        let l, h = Stats.min_max xs in
        lo := Float.min !lo l;
        hi := Float.max !hi h;
        (p, xs))
      order
  in
  let lo = Float.min 1.0 !lo and hi = !hi in
  Array.iter
    (fun (p, xs) ->
      let box = Stats.boxplot xs in
      Buffer.add_string buf
        (Printf.sprintf "%-12s %s  med=%.2f max=%.2f\n" names.(p)
           (Texttab.boxplot_line ~width:48 ~lo ~hi box)
           box.Stats.med box.Stats.high))
    per_program;
  let average = Stats.mean (Array.of_list !all) in
  Buffer.add_string buf
    (Printf.sprintf
       "\nAVERAGE available speedup (paper: 1.23x): %.2fx\n" average);
  (* The paper also reports the danger of bad settings: 0.7x mean, 0.2x
     worst case. *)
  let worsts =
    Array.map
      (fun (pr : Ml_model.Dataset.pair) ->
        let tmax = Array.fold_left Float.max 0.0 pr.Ml_model.Dataset.times in
        pr.Ml_model.Dataset.o3_seconds /. tmax)
      d.Ml_model.Dataset.pairs
  in
  let wmin, _ = Stats.min_max worsts in
  Buffer.add_string buf
    (Printf.sprintf
       "Wrong-setting cost (paper: 0.7x mean, 0.2x worst): %.2fx mean, \
        %.2fx worst\n"
       (Stats.mean worsts) wmin);
  Buffer.contents buf
