(** CSV export of the figures' underlying data series, for external
    plotting (gnuplot/matplotlib).  One file per figure, written by
    [bench/main.exe --csv DIR]. *)

let write_file dir name contents =
  let path = Filename.concat dir name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  path

let csv_of_rows header rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," header);
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(** fig4.csv: per program, the five-number summary of best speedup. *)
let fig4 ctx =
  let d = Context.dataset ctx in
  let names = Context.program_names ctx in
  let nu = Ml_model.Dataset.n_uarchs d in
  let rows =
    Array.to_list
      (Array.map
         (fun p ->
           let xs =
             Array.init nu (fun u ->
                 Ml_model.Dataset.best_speedup
                   (Ml_model.Dataset.pair d ~prog:p ~uarch:u))
           in
           let b = Prelude.Stats.boxplot xs in
           [
             names.(p);
             Printf.sprintf "%.4f" b.Prelude.Stats.low;
             Printf.sprintf "%.4f" b.Prelude.Stats.q1;
             Printf.sprintf "%.4f" b.Prelude.Stats.med;
             Printf.sprintf "%.4f" b.Prelude.Stats.q3;
             Printf.sprintf "%.4f" b.Prelude.Stats.high;
           ])
         (Context.order ctx Context.Program))
  in
  csv_of_rows [ "program"; "min"; "q1"; "median"; "q3"; "max" ] rows

(** fig5.csv: the full (program, configuration, best, model) surface. *)
let fig5 ctx =
  let d = Context.dataset ctx in
  let names = Context.program_names ctx in
  let rows =
    Array.to_list
      (Array.map
         (fun (x : Ml_model.Crossval.outcome) ->
           [
             names.(x.Ml_model.Crossval.prog);
             string_of_int x.Ml_model.Crossval.uarch;
             Uarch.Config.to_string
               d.Ml_model.Dataset.uarchs.(x.Ml_model.Crossval.uarch);
             Printf.sprintf "%.4f" (Ml_model.Crossval.best_speedup x);
             Printf.sprintf "%.4f" (Ml_model.Crossval.speedup x);
           ])
         (Context.outcomes ctx))
  in
  csv_of_rows [ "program"; "uarch"; "config"; "best"; "model" ] rows

(** fig6.csv: per-program means. *)
let fig6 ctx =
  let names = Context.program_names ctx in
  let rows =
    Array.to_list
      (Array.map
         (fun p ->
           let model, best = Context.speedups ctx Context.Program p in
           [ names.(p); Printf.sprintf "%.4f" model; Printf.sprintf "%.4f" best ])
         (Context.order ctx Context.Program))
  in
  csv_of_rows [ "program"; "model"; "best" ] rows

(** fig7.csv: per-configuration means, sorted by available speedup. *)
let fig7 ctx =
  let d = Context.dataset ctx in
  let rows =
    Array.to_list
      (Array.mapi
         (fun rank u ->
           let model, best = Context.speedups ctx Context.Uarch u in
           [
             string_of_int rank;
             Uarch.Config.to_string d.Ml_model.Dataset.uarchs.(u);
             Printf.sprintf "%.4f" model;
             Printf.sprintf "%.4f" best;
           ])
         (Context.order ctx Context.Uarch))
  in
  csv_of_rows [ "rank"; "config"; "model"; "best" ] rows

(** Write all exports; returns the paths. *)
let all ctx ~dir =
  Prelude.Envelope.mkdir_p dir;
  [
    write_file dir "fig4.csv" (fig4 ctx);
    write_file dir "fig5.csv" (fig5 ctx);
    write_file dir "fig6.csv" (fig6 ctx);
    write_file dir "fig7.csv" (fig7 ctx);
  ]
