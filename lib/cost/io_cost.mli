(** Cost of basic file operations (Section 5).

    All costs are in modeled seconds under the physical parameters of
    Table 10. [INDCOST] consumes the B+-tree parameters of Table 9 and
    the [c(n,m,r)] color approximation. *)

(** Join techniques; documented where [Join_cost] re-exports them as
    [Join_cost.method_choice]. *)
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

(** Scan methods, re-exported as [Scan_cost.choice]. *)
type scan_method = Row_scan | Vectorized

type params = {
  disk : Mood_storage.Disk.params;
  cpu_cost : float;
      (** CPUCOST: per-comparison CPU charge of the backward-traversal
          formula (Section 6.2). The paper never states its value; the
          default (5 ms) is calibrated so the optimizer's choices on the
          Section 8 examples match the paper's printed plans — see
          DESIGN.md and the [bench:cpucost-sensitivity] ablation. *)
  join_mem_bytes : int;
      (** Memory budget of a value join's build/sort space ([SET
          JOIN_MEM]; default 256 KiB). Below it hash joins stay in
          memory; above it Grace partitioning and external-sort runs
          spill. *)
  join_force : join_method option;
      (** [SET JOIN_FORCE] hint: when set, every join uses it
          regardless of cost. *)
  scan_force : scan_method option;
      (** [SET SCAN_FORCE] hint: when set, [Scan_cost.choose] returns
          it regardless of layout or cost. *)
}
(** The cost-parameter record. Its knobs belong to one database: the
    database keeps its own copy and hands it to the optimizer. *)

val default_params : params

val seqcost : params -> int -> float
(** [SEQCOST(b) = s + r + b*ebt]; 0 when [b <= 0]. *)

val rndcost : params -> float -> float
(** [RNDCOST(b) = b * (s + r + btt)]. Accepts fractional page counts
    because expected values flow in. Negative input clamps to 0. *)

val indcost : params -> Stats.index_stats -> k:int -> float
(** [INDCOST(k)]: expected cost of fetching object identifiers for [k]
    random keys from a secondary index, walking levels top-down with
    [n_i = leaves/(2v ln 2)^(i-2)], [m_i = leaves/(2v ln 2)^(i-1)],
    [r_1 = k], [r_i = c(n_(i-1), m_(i-1), r_(i-1))]. *)

val rngxcost : params -> Stats.index_stats -> fract:float -> float
(** [RNGXCOST(fract) = fract * leaves * (s + r + btt)]. *)

val mpscost : params -> int -> float
(** [MPSCOST(b) = s + r + b*ebt]: one sequential sweep over [b] PAX
    segment pages (the attribute minipages of a columnar scan); 0 when
    [b <= 0]. Charged to its own bucket so estimate accounting can
    tell columnar from row scans. *)

val deccost : params -> bytes:int -> float
(** Decompression CPU for decoding [bytes] of dictionary/RLE-encoded
    minipage payload: [bytes/1024 * cpu_cost]. *)

val est_charges : unit -> (string * int) list
(** Estimate-side accounting, one bucket per cost formula: how many
    times SEQCOST/RNDCOST/INDCOST/RNGXCOST were consulted and the total
    estimated time (microseconds) each handed out. Process-wide and
    covering every candidate the optimizer prices, not just chosen
    plans. Keys are ["cost_est.<formula>.calls"/".sum_us"], shaped for
    [Metrics.register_source]. *)
