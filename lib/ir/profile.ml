(** Execution profiles: everything the timing model needs to price a binary
    on any microarchitecture, gathered from a single interpreted run.

    This is the "trace once, model many" pivot of the reproduction: the
    interpreter runs each (program, optimisation-setting) binary once and
    produces this summary; {!module:Sim} then evaluates it against any of
    the 288,000 microarchitecture configurations in microseconds. *)

open Prelude

type t = {
  dyn_insts : int;  (** All executed instructions, terminators included. *)
  alu : int;
  mac : int;
  shift : int;
  cmp : int;
  mov : int;
  loads : int;  (** Includes spill reloads. *)
  stores : int;  (** Includes spill stores. *)
  spill_loads : int;
  spill_stores : int;
  calls : int;
  tail_calls : int;
  rets : int;
  branches : int;  (** Executed conditional branches. *)
  taken_branches : int;
  jumps : int;  (** Executed unconditional jumps (after fall-through elision). *)
  reg_reads : int;
  reg_writes : int;
  branch_sites : (int * int) array;
      (** Per static branch site: (executions, taken count). *)
  d_hists : (int * Reuse.histogram) array;
      (** Data-reuse histogram per cache block size in bytes. *)
  i_hists : (int * Reuse.histogram) array;
      (** Instruction-fetch reuse histogram per block size. *)
  btb_hist : Reuse.histogram;
      (** Reuse histogram over branch sites, driving the BTB model. *)
  gap_load : int array;
      (** [gap_load.(g)] = uses of a load result [g] instructions after the
          load, [g] capped at 7.  Drives the load-use stall model. *)
  gap_long : int array;
      (** Same for multi-cycle producers (mul, mac, div, rem). *)
  adjacent_dep_pairs : int;
      (** Instructions reading a register written by the immediately
          preceding instruction; limits dual-issue pairing. *)
  code_bytes : int;
  checksum : int;  (** Return value of the entry function. *)
}

let block_sizes = [| 8; 16; 32; 64 |]
(** The cache block sizes of table 2; histograms are precomputed for each. *)

(** Mutable trace collector filled by the interpreter. *)
type raw = {
  mutable r_dyn : int;
  mutable r_alu : int;
  mutable r_mac : int;
  mutable r_shift : int;
  mutable r_cmp : int;
  mutable r_mov : int;
  mutable r_loads : int;
  mutable r_stores : int;
  mutable r_spill_loads : int;
  mutable r_spill_stores : int;
  mutable r_calls : int;
  mutable r_tail_calls : int;
  mutable r_rets : int;
  mutable r_branches : int;
  mutable r_taken : int;
  mutable r_jumps : int;
  mutable r_reg_reads : int;
  mutable r_reg_writes : int;
  mutable r_site_execs : int array;
  mutable r_site_takens : int array;
  r_daddrs : Ibuf.t;  (** Byte addresses of loads/stores in order. *)
  r_iblocks8 : Ibuf.t;  (** Collapsed 8-byte fetch block ids. *)
  r_btb : Ibuf.t;  (** Collapsed branch-site ids. *)
  r_gap_load : int array;
  r_gap_long : int array;
  mutable r_adjacent : int;
  trace : bool;
}

let create_raw ~n_branch_sites ~trace =
  {
    r_dyn = 0;
    r_alu = 0;
    r_mac = 0;
    r_shift = 0;
    r_cmp = 0;
    r_mov = 0;
    r_loads = 0;
    r_stores = 0;
    r_spill_loads = 0;
    r_spill_stores = 0;
    r_calls = 0;
    r_tail_calls = 0;
    r_rets = 0;
    r_branches = 0;
    r_taken = 0;
    r_jumps = 0;
    r_reg_reads = 0;
    r_reg_writes = 0;
    r_site_execs = Array.make (max 1 n_branch_sites) 0;
    r_site_takens = Array.make (max 1 n_branch_sites) 0;
    r_daddrs = Ibuf.create ~capacity:(if trace then 8192 else 1) ();
    r_iblocks8 = Ibuf.create ~capacity:(if trace then 8192 else 1) ();
    r_btb = Ibuf.create ~capacity:(if trace then 4096 else 1) ();
    r_gap_load = Array.make 8 0;
    r_gap_long = Array.make 8 0;
    r_adjacent = 0;
    trace;
  }

(* Collapse consecutive duplicates of [ids]: repeats have stack distance 0
   and always hit, so dropping them changes no miss count while shrinking
   the Fenwick workload. *)
let collapse ids =
  let n = Array.length ids in
  if n = 0 then ids
  else begin
    let out = Array.make n 0 in
    let k = ref 0 in
    out.(0) <- ids.(0);
    k := 1;
    for i = 1 to n - 1 do
      if ids.(i) <> ids.(i - 1) then begin
        out.(!k) <- ids.(i);
        incr k
      end
    done;
    Array.sub out 0 !k
  end

let shift_of_bytes b =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go b 0

let finalise raw ~code_bytes ~checksum =
  let daddrs = Ibuf.to_array raw.r_daddrs in
  let d_hists =
    Array.map
      (fun bs ->
        let s = shift_of_bytes bs in
        let blocks = collapse (Array.map (fun a -> a asr s) daddrs) in
        (bs, Reuse.histogram_of_blocks blocks))
      block_sizes
  in
  let iblocks8 = Ibuf.to_array raw.r_iblocks8 in
  let i_hists =
    Array.map
      (fun bs ->
        let extra_shift = shift_of_bytes bs - 3 in
        let blocks =
          if extra_shift = 0 then iblocks8
          else collapse (Array.map (fun b -> b asr extra_shift) iblocks8)
        in
        (bs, Reuse.histogram_of_blocks blocks))
      block_sizes
  in
  let btb_hist = Reuse.histogram_of_blocks (Ibuf.to_array raw.r_btb) in
  {
    dyn_insts = raw.r_dyn;
    alu = raw.r_alu;
    mac = raw.r_mac;
    shift = raw.r_shift;
    cmp = raw.r_cmp;
    mov = raw.r_mov;
    loads = raw.r_loads;
    stores = raw.r_stores;
    spill_loads = raw.r_spill_loads;
    spill_stores = raw.r_spill_stores;
    calls = raw.r_calls;
    tail_calls = raw.r_tail_calls;
    rets = raw.r_rets;
    branches = raw.r_branches;
    taken_branches = raw.r_taken;
    jumps = raw.r_jumps;
    reg_reads = raw.r_reg_reads;
    reg_writes = raw.r_reg_writes;
    branch_sites =
      Array.init (Array.length raw.r_site_execs) (fun i ->
          (raw.r_site_execs.(i), raw.r_site_takens.(i)));
    d_hists;
    i_hists;
    btb_hist;
    gap_load = Array.copy raw.r_gap_load;
    gap_long = Array.copy raw.r_gap_long;
    adjacent_dep_pairs = raw.r_adjacent;
    code_bytes;
    checksum;
  }

let d_hist t ~block_bytes =
  match Array.find_opt (fun (bs, _) -> bs = block_bytes) t.d_hists with
  | Some (_, h) -> h
  | None -> invalid_arg "Profile.d_hist: unsupported block size"

let i_hist t ~block_bytes =
  match Array.find_opt (fun (bs, _) -> bs = block_bytes) t.i_hists with
  | Some (_, h) -> h
  | None -> invalid_arg "Profile.i_hist: unsupported block size"

let mem_accesses t = t.loads + t.stores
