(* Helpers shared by the pbench subcommands. *)

module J = Obs.Json

let fail fmt = Printf.ksprintf failwith fmt

let load_artifact path =
  match Serve.Artifact.load ~path with
  | Ok a -> a
  | Error e -> fail "cannot load %s: %s" path e

let programs = Workloads.Mibench.all

(* The correctness reference for every interpreted binary: the checksum
   of the unoptimised IR, run outside the pass pipeline.  The benchmark's
   self-check sets PERFBENCH_WRONG to [check] to hand the check a wrong
   reference and see it fail. *)
let reference_checksums ~check =
  let skew = if Sys.getenv_opt "PERFBENCH_WRONG" = Some check then 1 else 0 in
  Array.map
    (fun spec ->
      skew
      + fst
          (Ir.Interp.run_program ~trace:false (Workloads.Mibench.program_of spec)))
    programs

let program_digests () =
  Array.map
    (fun spec -> Store.program_digest (Workloads.Mibench.program_of spec))
    programs

(* The -O3 profile of every program, read back from a store the train
   under test filled. *)
let o3_runs store =
  Array.map2
    (fun spec digest ->
      let key =
        Store.profile_key ~program_digest:digest ~setting:Passes.Flags.o3
      in
      match Store.find_run store ~key with
      | Some r -> r
      | None -> fail "store has no -O3 profile of %s" spec.Workloads.Spec.name)
    programs (program_digests ())

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let json_of_string s =
  match J.of_string s with Ok j -> j | Error e -> fail "bad JSON: %s" e

let ints a = J.List (Array.to_list (Array.map (fun i -> J.Int i) a))

let member name j =
  match J.member name j with Some v -> v | None -> fail "missing %S" name

let int_array j =
  match J.to_list j with
  | Some l -> Array.of_list (List.map (fun v -> Option.get (J.to_int v)) l)
  | None -> fail "expected an int list"

(* One JSON object of named numbers on stdout: what run.py reads. *)
let print_metrics fields =
  print_string
    (J.to_string (J.Obj (List.map (fun (k, v) -> (k, J.Float v)) fields)));
  print_newline ()
