module Disk = Mood_storage.Disk
module Combinat = Mood_util.Combinat

(* The plan-hint types live here, with the knobs that carry them, so
   one parameter record reaches every cost formula; [Join_cost] and
   [Scan_cost] re-export them. *)
type join_method =
  | Forward_traversal
  | Backward_traversal
  | Binary_join_index
  | Hash_partition
  | Nested_loop
  | Hash_join
  | Grace_hash
  | Sort_merge
  | Fusion_join

type scan_method = Row_scan | Vectorized

type params = {
  disk : Disk.params;
  cpu_cost : float;
  join_mem_bytes : int;
  join_force : join_method option;
  scan_force : scan_method option;
}

let default_params =
  { disk = Disk.default_params;
    cpu_cost = 5e-3;
    join_mem_bytes = 262144;
    join_force = None;
    scan_force = None
  }

(* Estimate-side accounting: how often each cost formula is consulted
   and how many estimated seconds it handed out, bucketed per formula.
   These are process-wide (the formulas are pure functions with no
   handle to thread a registry through) and cover every candidate the
   optimizer prices, not just the chosen plan — they measure cost-model
   traffic, the estimate half of the estimate-vs-actual loop. *)
type charge = { mutable calls : int; mutable est_s : float }

let seq_charge = { calls = 0; est_s = 0. }
let rnd_charge = { calls = 0; est_s = 0. }
let ind_charge = { calls = 0; est_s = 0. }
let rngx_charge = { calls = 0; est_s = 0. }
let mps_charge = { calls = 0; est_s = 0. }
let dec_charge = { calls = 0; est_s = 0. }

let charged bucket cost =
  bucket.calls <- bucket.calls + 1;
  bucket.est_s <- bucket.est_s +. cost;
  cost

let est_charges () =
  let micros s = int_of_float (Float.round (s *. 1e6)) in
  [ ("cost_est.seqcost.calls", seq_charge.calls);
    ("cost_est.seqcost.sum_us", micros seq_charge.est_s);
    ("cost_est.rndcost.calls", rnd_charge.calls);
    ("cost_est.rndcost.sum_us", micros rnd_charge.est_s);
    ("cost_est.indcost.calls", ind_charge.calls);
    ("cost_est.indcost.sum_us", micros ind_charge.est_s);
    ("cost_est.rngxcost.calls", rngx_charge.calls);
    ("cost_est.rngxcost.sum_us", micros rngx_charge.est_s);
    ("cost_est.mpscost.calls", mps_charge.calls);
    ("cost_est.mpscost.sum_us", micros mps_charge.est_s);
    ("cost_est.deccost.calls", dec_charge.calls);
    ("cost_est.deccost.sum_us", micros dec_charge.est_s)
  ]

let seqcost p b =
  if b <= 0 then 0.
  else
    charged seq_charge
      (p.disk.Disk.seek +. p.disk.Disk.rot +. (float_of_int b *. p.disk.Disk.ebt))

let rndcost p b =
  if b <= 0. then 0.
  else charged rnd_charge (b *. (p.disk.Disk.seek +. p.disk.Disk.rot +. p.disk.Disk.btt))

let indcost p (ix : Stats.index_stats) ~k =
  if k <= 0 then 0.
  else begin
    let fanout = 2. *. float_of_int ix.Stats.order *. log 2. in
    let leaves = float_of_int ix.Stats.leaves in
    let pages = ref 0. in
    let r = ref (float_of_int k) in
    for i = 1 to ix.Stats.levels do
      let n = leaves /. (fanout ** float_of_int (i - 2)) in
      let m = leaves /. (fanout ** float_of_int (i - 1)) in
      let hit =
        Combinat.c_approx
          ~n:(int_of_float (Float.max 1. n))
          ~m:(int_of_float (Float.max 1. m))
          ~r:(int_of_float (Float.max 1. (Float.round !r)))
      in
      pages := !pages +. Float.of_int (int_of_float (ceil hit));
      r := hit
    done;
    (* Same per-page price as [rndcost p 1.], computed inline so the
       charge lands in the indcost bucket, not the rndcost one. *)
    charged ind_charge
      (!pages *. (p.disk.Disk.seek +. p.disk.Disk.rot +. p.disk.Disk.btt))
  end

let rngxcost p (ix : Stats.index_stats) ~fract =
  let fract = Float.max 0. (Float.min 1. fract) in
  charged rngx_charge
    (fract *. float_of_int ix.Stats.leaves
    *. (p.disk.Disk.seek +. p.disk.Disk.rot +. p.disk.Disk.btt))

(* Minipage scan: the PAX segment of a class is laid out contiguously,
   so touching the minipages of the scanned attributes is one
   sequential sweep over [b] segment pages. *)
let mpscost p b =
  if b <= 0 then 0.
  else
    charged mps_charge
      (p.disk.Disk.seek +. p.disk.Disk.rot +. (float_of_int b *. p.disk.Disk.ebt))

(* Decompression: dictionary / RLE decode is a CPU sweep over the
   encoded bytes, far below the per-comparison CPUCOST — one CPUCOST
   unit buys ~1 KB of decoding. *)
let deccost p ~bytes =
  if bytes <= 0 then 0.
  else charged dec_charge (float_of_int bytes /. 1024. *. p.cpu_cost)
