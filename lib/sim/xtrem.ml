(** Top level of the simulator: compile, run once, time anywhere.

    [profile_of] compiles a program under a flag setting, places it and
    interprets it once; [time] evaluates the resulting profile on any
    microarchitecture.  The expensive step (interpretation) is independent
    of the microarchitecture, so callers cache profiles per
    (program, canonical setting) and reuse them across the whole design
    space — the trace-once/model-many structure that makes the paper's
    7-million-point sample tractable here. *)

type run = {
  setting : Passes.Flags.setting;
  profile : Ir.Profile.t;
  checksum : int;
  size : int option;
      (** Static post-pipeline instruction count; [None] only for runs
          imported from pre-v2 store records. *)
}

(* Telemetry: interpreted runs with their dynamic instruction and
   memory-access volume, and timing-model evaluations.  Counters are
   atomic (several domains profile and price concurrently) and purely
   observational — recorded from the finished profile, so the
   interpreter's hot loop is untouched. *)
let m_runs = Obs.Metrics.counter "interp.runs"
let m_insts = Obs.Metrics.counter "interp.dyn_insts"
let m_mem = Obs.Metrics.counter "interp.mem_accesses"
let m_evals = Obs.Metrics.counter "sim.evals"

let profile_of ?setting program =
  Obs.Span.with_ "sim.profile" (fun () ->
      let compiled = Passes.Driver.compile ?setting program in
      let size = Ir.Types.program_size compiled in
      let image = Ir.Layout.place compiled in
      let t0 = Obs.Clock.now_s () in
      let checksum, profile = Ir.Interp.run image in
      let dur = Obs.Clock.now_s () -. t0 in
      Obs.Metrics.add m_runs 1;
      Obs.Metrics.add m_insts profile.Ir.Profile.dyn_insts;
      Obs.Metrics.add m_mem (Ir.Profile.mem_accesses profile);
      Obs.Span.event "interp"
        [
          ("dur_s", Obs.Json.Float dur);
          ("dyn_insts", Obs.Json.Int profile.Ir.Profile.dyn_insts);
        ];
      {
        setting = Option.value setting ~default:Passes.Flags.o3;
        profile;
        checksum;
        size = Some size;
      })

(* ---- disk round-trip -------------------------------------------------- *)

(* A profile is counts all the way down — ints, int arrays and sparse
   integer histograms — so a JSON rendering with [Obs.Json.Int]
   everywhere round-trips bit-exactly.  [export]/[import] are the
   serialisation boundary the content-addressed evaluation store
   ([Store]) uses to persist interpreter output across processes:
   [import (export r) = Ok r] for every run, enforced by the test
   suite. *)

module J = Obs.Json

let ints a = J.List (Array.to_list (Array.map (fun i -> J.Int i) a))

let hist_json (h : Prelude.Reuse.histogram) =
  J.Obj
    [
      ( "entries",
        J.List
          (Array.to_list
             (Array.map
                (fun (d, c) -> J.List [ J.Int d; J.Int c ])
                h.Prelude.Reuse.entries)) );
      ("cold", J.Int h.Prelude.Reuse.cold);
      ("total", J.Int h.Prelude.Reuse.total);
    ]

let hists_json hs =
  J.List
    (Array.to_list
       (Array.map
          (fun (bs, h) ->
            J.Obj [ ("block", J.Int bs); ("hist", hist_json h) ])
          hs))

let export run =
  let p = run.profile in
  (* [size] entered the payload with store record v2; omitting it when
     absent keeps re-exports of v1 imports honest. *)
  let size_field =
    match run.size with None -> [] | Some n -> [ ("size", J.Int n) ]
  in
  J.Obj
    ([
       ("setting", ints run.setting);
       ("checksum", J.Int run.checksum);
     ]
    @ size_field
    @ [
      ( "profile",
        J.Obj
          [
            ("dyn_insts", J.Int p.Ir.Profile.dyn_insts);
            ("alu", J.Int p.Ir.Profile.alu);
            ("mac", J.Int p.Ir.Profile.mac);
            ("shift", J.Int p.Ir.Profile.shift);
            ("cmp", J.Int p.Ir.Profile.cmp);
            ("mov", J.Int p.Ir.Profile.mov);
            ("loads", J.Int p.Ir.Profile.loads);
            ("stores", J.Int p.Ir.Profile.stores);
            ("spill_loads", J.Int p.Ir.Profile.spill_loads);
            ("spill_stores", J.Int p.Ir.Profile.spill_stores);
            ("calls", J.Int p.Ir.Profile.calls);
            ("tail_calls", J.Int p.Ir.Profile.tail_calls);
            ("rets", J.Int p.Ir.Profile.rets);
            ("branches", J.Int p.Ir.Profile.branches);
            ("taken_branches", J.Int p.Ir.Profile.taken_branches);
            ("jumps", J.Int p.Ir.Profile.jumps);
            ("reg_reads", J.Int p.Ir.Profile.reg_reads);
            ("reg_writes", J.Int p.Ir.Profile.reg_writes);
            ( "branch_sites",
              J.List
                (Array.to_list
                   (Array.map
                      (fun (e, t) -> J.List [ J.Int e; J.Int t ])
                      p.Ir.Profile.branch_sites)) );
            ("d_hists", hists_json p.Ir.Profile.d_hists);
            ("i_hists", hists_json p.Ir.Profile.i_hists);
            ("btb_hist", hist_json p.Ir.Profile.btb_hist);
            ("gap_load", ints p.Ir.Profile.gap_load);
            ("gap_long", ints p.Ir.Profile.gap_long);
            ("adjacent_dep_pairs", J.Int p.Ir.Profile.adjacent_dep_pairs);
              ("code_bytes", J.Int p.Ir.Profile.code_bytes);
              ("checksum", J.Int p.Ir.Profile.checksum);
            ] );
      ])

let ( let* ) = Result.bind

let int_array j =
  match J.to_list j with
  | None -> None
  | Some items ->
    let out = Array.make (List.length items) 0 in
    let ok = ref true in
    List.iteri
      (fun i v ->
        match v with J.Int n -> out.(i) <- n | _ -> ok := false)
      items;
    if !ok then Some out else None

let int_pairs j =
  match J.to_list j with
  | None -> None
  | Some items ->
    let out =
      List.filter_map
        (function
          | J.List [ J.Int a; J.Int b ] -> Some (a, b)
          | _ -> None)
        items
    in
    if List.length out = List.length items then Some (Array.of_list out)
    else None

let hist_of_json j =
  match
    let* entries = J.field "entries" int_pairs j in
    let* cold = J.field "cold" (function J.Int n -> Some n | _ -> None) j in
    let* total = J.field "total" (function J.Int n -> Some n | _ -> None) j in
    Ok { Prelude.Reuse.entries; cold; total }
  with
  | Ok h -> Some h
  | Error _ -> None

let hists_of_json j =
  match J.to_list j with
  | None -> None
  | Some items ->
    let out =
      List.filter_map
        (fun item ->
          match
            ( Option.bind (J.member "block" item) (function
                | J.Int n -> Some n
                | _ -> None),
              Option.bind (J.member "hist" item) hist_of_json )
          with
          | Some bs, Some h -> Some (bs, h)
          | _ -> None)
        items
    in
    if List.length out = List.length items then Some (Array.of_list out)
    else None

let import j =
  let* setting = J.field "setting" int_array j in
  let* () =
    match Passes.Flags.validate setting with
    | () -> Ok ()
    | exception Invalid_argument e -> Error e
  in
  let* checksum = J.field "checksum" J.to_int j in
  (* Optional: absent from store records written before v2. *)
  let size = Option.bind (J.member "size" j) J.to_int in
  let* p = J.field "profile" Option.some j in
  let i name = J.field name J.to_int p in
  let* dyn_insts = i "dyn_insts" in
  let* alu = i "alu" in
  let* mac = i "mac" in
  let* shift = i "shift" in
  let* cmp = i "cmp" in
  let* mov = i "mov" in
  let* loads = i "loads" in
  let* stores = i "stores" in
  let* spill_loads = i "spill_loads" in
  let* spill_stores = i "spill_stores" in
  let* calls = i "calls" in
  let* tail_calls = i "tail_calls" in
  let* rets = i "rets" in
  let* branches = i "branches" in
  let* taken_branches = i "taken_branches" in
  let* jumps = i "jumps" in
  let* reg_reads = i "reg_reads" in
  let* reg_writes = i "reg_writes" in
  let* branch_sites = J.field "branch_sites" int_pairs p in
  let* d_hists = J.field "d_hists" hists_of_json p in
  let* i_hists = J.field "i_hists" hists_of_json p in
  let* btb_hist = J.field "btb_hist" hist_of_json p in
  let* gap_load = J.field "gap_load" int_array p in
  let* gap_long = J.field "gap_long" int_array p in
  let* adjacent_dep_pairs = i "adjacent_dep_pairs" in
  let* code_bytes = i "code_bytes" in
  let* profile_checksum = i "checksum" in
  Ok
    {
      setting;
      checksum;
      size;
      profile =
        {
          Ir.Profile.dyn_insts;
          alu;
          mac;
          shift;
          cmp;
          mov;
          loads;
          stores;
          spill_loads;
          spill_stores;
          calls;
          tail_calls;
          rets;
          branches;
          taken_branches;
          jumps;
          reg_reads;
          reg_writes;
          branch_sites;
          d_hists;
          i_hists;
          btb_hist;
          gap_load;
          gap_long;
          adjacent_dep_pairs;
          code_bytes;
          checksum = profile_checksum;
        };
    }

let time run u =
  Obs.Metrics.add m_evals 1;
  Pipeline.evaluate run.profile u

let seconds run u = (time run u).Pipeline.seconds

(** Energy estimate in millijoules: dynamic cache/access energy plus
    leakage over the run, from the Cacti-style model.  Used by the power
    example (the paper notes some configurations trade 21% power). *)
let energy_mj run (u : Uarch.Config.t) =
  let v = time run u in
  let p = run.profile in
  let cache_energy accesses ~size ~assoc ~block =
    accesses *. Uarch.Cacti.access_energy_nj ~size ~assoc ~block *. 1e-6
  in
  let ienergy =
    cache_energy
      (float_of_int p.Ir.Profile.dyn_insts)
      ~size:u.Uarch.Config.il1_size ~assoc:u.Uarch.Config.il1_assoc
      ~block:u.Uarch.Config.il1_block
  in
  let denergy =
    cache_energy
      (float_of_int (Ir.Profile.mem_accesses p))
      ~size:u.Uarch.Config.dl1_size ~assoc:u.Uarch.Config.dl1_assoc
      ~block:u.Uarch.Config.dl1_block
  in
  let core_energy = float_of_int p.Ir.Profile.dyn_insts *. 0.12 *. 1e-6 in
  let leakage =
    (Uarch.Cacti.leakage_mw ~size:u.Uarch.Config.il1_size
    +. Uarch.Cacti.leakage_mw ~size:u.Uarch.Config.dl1_size)
    *. v.Pipeline.seconds
  in
  let e = ienergy +. denergy +. core_energy +. leakage in
  (* Zero-instruction or otherwise degenerate runs must not poison
     objective vectors with NaN/negative energy. *)
  if Float.is_finite e && e >= 0.0 then e else 0.0
