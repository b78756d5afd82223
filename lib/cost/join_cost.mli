(** Costs of the implicit join [C.A = D.self] (Section 6), realized
    through the four techniques the optimizer chooses among. [k_c] and
    [k_d] are the numbers of C and D objects entering the join (equal to
    the class cardinalities when nothing was selected first). *)

type edge = {
  cls : string;          (** class C, the referencing side *)
  attr : string;         (** reference attribute A *)
  source_in_memory : bool;
      (** when C's objects are an already-materialized temporary
          collection, the forward traversal does not re-fetch the source
          pages (its [RNDCOST(nbpg_c)] term drops) *)
}

val forward : Io_cost.params -> Stats.t -> edge -> k_c:float -> float
(** [ftc = RNDCOST(nbpg_c) + RNDCOST(k_c * fan(A,C,D))] with
    [nbpg_c = nbpages(C) * (1 - (1 - 1/nbpages(C))^k_c)] — the
    worst-case (no buffer hits on D). *)

val backward :
  Io_cost.params -> Stats.t -> edge -> k_c:float -> k_d:float -> d_accessed:bool -> float
(** [btc = SEQCOST(nbpages(C)) + k_c*fan*k_d*CPUCOST
          + (0 if D accessed previously else SEQCOST(nbpages(D)))]. *)

val binary_join_index :
  Io_cost.params -> index:Stats.index_stats option -> k:float -> float option
(** [bjc = INDCOST(k)]; [None] when no binary join index exists on the
    edge. *)

val hash_partition : Io_cost.params -> Stats.t -> edge -> k_c:float -> float
(** Pointer-based hash-partition join:
    [hhc = 3 * (k_c/|C|) * SEQCOST(nbpages(C)) + RNDCOST(nbpg)] with
    [nbpg = nbpages(D) * (1 - (1 - 1/nbpages(D))^alpha)] and
    [alpha = c(|C|*fan, totref, k_c*fan)]. Applicable only when A is a
    Reference constructor (the caller guarantees it). *)

type method_choice = Io_cost.join_method =
  | Forward_traversal
  | Backward_traversal
  | Binary_join_index
  | Hash_partition
  | Nested_loop      (** materialize right once, scan left against it *)
  | Hash_join        (** canonical in-memory hash join (build on right) *)
  | Grace_hash       (** Grace partitioned hash join with recursive spill *)
  | Sort_merge       (** external sort-merge with duplicate-key sub-blocks *)
  | Fusion_join      (** Odra-style fusion join over collection attributes *)

val cheapest :
  Io_cost.params ->
  Stats.t ->
  edge ->
  k_c:float ->
  k_d:float ->
  d_accessed:bool ->
  join_index:Stats.index_stats option ->
  method_choice * float
(** The minimum-cost technique among the four (Algorithm 8.2's [jc]).
    Ties break in the order forward, index, hash, backward. *)

type value_side = {
  v_cls : string;          (** class name; [""] when the side is a temp *)
  v_rows : float;          (** k: rows entering the join on this side *)
  v_attr : string option;  (** join attribute, for dist(A,C) skew stats *)
}
(** One input of a value (non-pointer) equi-join. *)

val cheapest_value :
  Io_cost.params ->
  Stats.t ->
  left:value_side ->
  right:value_side ->
  l_collection:bool ->
  method_choice * float
(** The minimum-cost value-join method. Candidates are nested loop, hash
    join (only when the right side fits [params.join_mem_bytes]), Grace hash
    (spill passes plus a skew term when the heaviest duplicate group
    overflows the budget) and sort-merge; when [l_collection] (the left
    key is a collection attribute) the hash family is replaced by the
    fusion join. A [params.join_force] hint ([SET JOIN_FORCE], which
    the differential join oracle drives) short-circuits everything. Ties break
    nested, hash/fusion, grace, sort-merge. *)

val pp_method : Format.formatter -> method_choice -> unit
(** Prints the paper's plan-operator spelling: [FORWARD_TRAVERSAL],
    [BACKWARD_TRAVERSAL], [BINARY_JOIN_INDEX], [HASH_PARTITION] — and
    for the value joins [NESTED_LOOP], [HASH_JOIN], [GRACE_HASH],
    [SORT_MERGE], [FUSION_JOIN]. *)

val method_of_string : string -> method_choice option
(** Inverse of [pp_method] (case-insensitive); [None] for unknown
    spellings. *)
