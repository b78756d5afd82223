module Combinat = Mood_util.Combinat

type edge = { cls : string; attr : string; source_in_memory : bool }

type method_choice = Io_cost.join_method =
  | Forward_traversal
  | Backward_traversal
  | Binary_join_index
  | Hash_partition
  | Nested_loop
  | Hash_join
  | Grace_hash
  | Sort_merge
  | Fusion_join

let fan stats (e : edge) =
  match Stats.ref_stats stats ~cls:e.cls ~attr:e.attr with
  | Some r -> r.Stats.fan
  | None -> 0.

let totref stats (e : edge) =
  match Stats.ref_stats stats ~cls:e.cls ~attr:e.attr with
  | Some r -> r.Stats.totref
  | None -> 0

let target stats (e : edge) =
  match Stats.ref_stats stats ~cls:e.cls ~attr:e.attr with
  | Some r -> r.Stats.target
  | None -> ""

(* nbpages(X) * (1 - (1 - 1/nbpages(X))^hits) for fractional hits. *)
let distinct_pages pages hits =
  if pages <= 0 || hits <= 0. then 0.
  else
    let p = float_of_int pages in
    p *. (1. -. ((1. -. (1. /. p)) ** hits))

let forward params stats e ~k_c =
  let source =
    if e.source_in_memory then 0.
    else Io_cost.rndcost params (distinct_pages (Stats.nbpages stats e.cls) k_c)
  in
  source +. Io_cost.rndcost params (k_c *. fan stats e)

let backward params stats e ~k_c ~k_d ~d_accessed =
  let scan_c = Io_cost.seqcost params (Stats.nbpages stats e.cls) in
  let cpu = k_c *. fan stats e *. k_d *. params.Io_cost.cpu_cost in
  let scan_d =
    if d_accessed then 0. else Io_cost.seqcost params (Stats.nbpages stats (target stats e))
  in
  scan_c +. cpu +. scan_d

let binary_join_index params ~index ~k =
  match index with
  | Some ix -> Some (Io_cost.indcost params ix ~k:(int_of_float (ceil k)))
  | None -> None

let hash_partition params stats e ~k_c =
  let c_card = float_of_int (Stats.cardinality stats e.cls) in
  let fraction = if c_card > 0. then k_c /. c_card else 1. in
  let partition = 3. *. fraction *. Io_cost.seqcost params (Stats.nbpages stats e.cls) in
  let alpha =
    Combinat.c_approx
      ~n:(int_of_float (Float.max 1. (c_card *. fan stats e)))
      ~m:(max 1 (totref stats e))
      ~r:(int_of_float (Float.max 1. (Float.round (k_c *. fan stats e))))
  in
  let nbpg = distinct_pages (Stats.nbpages stats (target stats e)) alpha in
  partition +. Io_cost.rndcost params nbpg

let cheapest params stats e ~k_c ~k_d ~d_accessed ~join_index =
  let candidates =
    [ (Forward_traversal, Some (forward params stats e ~k_c));
      (Binary_join_index, binary_join_index params ~index:join_index ~k:k_c);
      (Hash_partition, Some (hash_partition params stats e ~k_c));
      (Backward_traversal, Some (backward params stats e ~k_c ~k_d ~d_accessed))
    ]
  in
  let best =
    List.fold_left
      (fun acc (m, cost) ->
        match cost, acc with
        | None, _ -> acc
        | Some c, None -> Some (m, c)
        | Some c, Some (_, best_c) -> if c < best_c then Some (m, c) else acc)
      None candidates
  in
  match best with
  | Some choice -> choice
  | None -> assert false (* forward and hash are always available *)

(* ------------------------------------------------------------------ *)
(* Value joins: memory-bounded equi-joins over attribute values (as    *)
(* opposed to the pointer joins above, which follow Reference edges).  *)

type value_side = {
  v_cls : string;          (* class name; "" when the side is a temp *)
  v_rows : float;          (* k: rows entering the join on this side *)
  v_attr : string option;  (* join attribute, for dist(A,C) skew stats *)
}

let block_size (params : Io_cost.params) =
  max 1 params.Io_cost.disk.Mood_storage.Disk.block_size

let mem_pages params = max 1 (params.Io_cost.join_mem_bytes / block_size params)

(* Pages this side occupies, scaled by the fraction of the class that
   actually enters the join; a memory-resident temp still pays one
   sequential page per ~32 rows so the formulas stay comparable. *)
let side_pages stats (s : value_side) =
  if s.v_rows <= 0. then 0.
  else
    match Stats.class_stats stats s.v_cls with
    | Some cs when cs.Stats.cardinality > 0 && cs.Stats.nbpages > 0 ->
        let fraction = Float.min 1. (s.v_rows /. float_of_int cs.Stats.cardinality) in
        Float.max 1. (fraction *. float_of_int cs.Stats.nbpages)
    | _ -> Float.max 1. (s.v_rows /. 32.)

let side_row_bytes stats (s : value_side) =
  match Stats.class_stats stats s.v_cls with
  | Some cs when cs.Stats.obj_size > 0 -> float_of_int cs.Stats.obj_size
  | _ -> 100.

let side_dist stats (s : value_side) =
  match s.v_attr with
  | None -> None
  | Some attr -> (
      match Stats.attr_stats stats ~cls:s.v_cls ~attr with
      | Some a when a.Stats.dist > 0 -> Some a.Stats.dist
      | _ -> None)

let seq_pages params pages = Io_cost.seqcost params (int_of_float (ceil pages))

let nested_loop_cost params ~scan_l ~scan_r ~k_l ~k_r =
  (* Right side is materialized once (the executor does not rescan). *)
  scan_l +. scan_r +. (k_l *. k_r *. params.Io_cost.cpu_cost)

let hash_join_cost params ~scan_l ~scan_r ~k_l ~k_r ~pages_r ~mem =
  (* Canonical in-memory hash: applicable only when the build side
     (right) fits the budget. Build + probe are one CPU touch per row. *)
  if pages_r > float_of_int mem then None
  else Some (scan_l +. scan_r +. ((k_l +. k_r) *. params.Io_cost.cpu_cost))

(* Partitioning passes until every partition of [pages] fits [mem]
   pages, with a fanout of [mem - 1] output partitions per pass. *)
let grace_passes ~pages ~mem =
  let fanout = Float.max 2. (float_of_int (mem - 1)) in
  let rec go pages passes =
    if pages <= float_of_int mem || passes >= 4 then passes
    else go (pages /. fanout) (passes + 1)
  in
  go pages 0

let grace_hash_cost params stats ~(right : value_side) ~scan_l ~scan_r ~k_l ~k_r
    ~pages_l ~pages_r ~mem =
  let passes = grace_passes ~pages:pages_r ~mem in
  (* Each pass rewrites both inputs: read + write, charged sequentially
     through the simulated disk (spill files live in the buffer pool). *)
  let spill = 2. *. float_of_int passes *. (seq_pages params pages_l +. seq_pages params pages_r) in
  let cpu = 1.5 *. (k_l +. k_r) *. params.Io_cost.cpu_cost in
  (* Skew term: when the heaviest duplicate group cannot fit the budget,
     recursive partitioning burns its depth without converging and falls
     back in-memory — charge the wasted passes. *)
  let skew =
    match side_dist stats right with
    | Some dist ->
        let dup_bytes = k_r /. float_of_int dist *. side_row_bytes stats right in
        if dup_bytes > float_of_int params.Io_cost.join_mem_bytes then
          8. *. (seq_pages params pages_l +. seq_pages params pages_r)
        else 0.
    | None -> 0.
  in
  scan_l +. scan_r +. spill +. cpu +. skew

let sort_merge_cost params ~scan_l ~scan_r ~k_l ~k_r ~pages_l ~pages_r ~mem =
  let side scan pages k =
    let sort_io = if pages <= float_of_int mem then 0. else 2. *. seq_pages params pages in
    let cmp = if k > 1. then k *. (Float.log k /. Float.log 2.) else 0. in
    scan +. sort_io +. (cmp *. params.Io_cost.cpu_cost)
  in
  side scan_l pages_l k_l +. side scan_r pages_r k_r
  +. ((k_l +. k_r) *. params.Io_cost.cpu_cost)

(* Odra-style fusion join: streams the left side, probing a hash of the
   right once per collection element — no materialization of the
   flattened left. [elem_fan] is the assumed collection cardinality. *)
let fusion_elem_fan = 4.

let fusion_join_cost params ~scan_l ~scan_r ~k_l ~k_r =
  scan_l +. scan_r +. (((k_l *. fusion_elem_fan) +. k_r) *. params.Io_cost.cpu_cost)

let cheapest_value params stats ~(left : value_side) ~(right : value_side)
    ~l_collection =
  match params.Io_cost.join_force with
  | Some m -> (m, 0.)
  | None ->
      let k_l = Float.max 0. left.v_rows and k_r = Float.max 0. right.v_rows in
      let pages_l = side_pages stats left and pages_r = side_pages stats right in
      let scan_l = seq_pages params pages_l and scan_r = seq_pages params pages_r in
      let mem = mem_pages params in
      let candidates =
        if l_collection then
          [ (Nested_loop, Some (nested_loop_cost params ~scan_l ~scan_r ~k_l ~k_r));
            (Fusion_join, Some (fusion_join_cost params ~scan_l ~scan_r ~k_l ~k_r));
            (Sort_merge,
             Some (sort_merge_cost params ~scan_l ~scan_r ~k_l ~k_r ~pages_l ~pages_r ~mem))
          ]
        else
          [ (Nested_loop, Some (nested_loop_cost params ~scan_l ~scan_r ~k_l ~k_r));
            (Hash_join, hash_join_cost params ~scan_l ~scan_r ~k_l ~k_r ~pages_r ~mem);
            (Grace_hash,
             Some
               (grace_hash_cost params stats ~right ~scan_l ~scan_r ~k_l ~k_r ~pages_l
                  ~pages_r ~mem));
            (Sort_merge,
             Some (sort_merge_cost params ~scan_l ~scan_r ~k_l ~k_r ~pages_l ~pages_r ~mem))
          ]
      in
      let best =
        List.fold_left
          (fun acc (m, cost) ->
            match cost, acc with
            | None, _ -> acc
            | Some c, None -> Some (m, c)
            | Some c, Some (_, best_c) -> if c < best_c then Some (m, c) else acc)
          None candidates
      in
      (match best with
      | Some choice -> choice
      | None -> assert false (* nested loop is always available *))

let pp_method ppf m =
  Format.pp_print_string ppf
    (match m with
    | Forward_traversal -> "FORWARD_TRAVERSAL"
    | Backward_traversal -> "BACKWARD_TRAVERSAL"
    | Binary_join_index -> "BINARY_JOIN_INDEX"
    | Hash_partition -> "HASH_PARTITION"
    | Nested_loop -> "NESTED_LOOP"
    | Hash_join -> "HASH_JOIN"
    | Grace_hash -> "GRACE_HASH"
    | Sort_merge -> "SORT_MERGE"
    | Fusion_join -> "FUSION_JOIN")

let method_of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "FORWARD_TRAVERSAL" -> Some Forward_traversal
  | "BACKWARD_TRAVERSAL" -> Some Backward_traversal
  | "BINARY_JOIN_INDEX" -> Some Binary_join_index
  | "HASH_PARTITION" -> Some Hash_partition
  | "NESTED_LOOP" -> Some Nested_loop
  | "HASH_JOIN" -> Some Hash_join
  | "GRACE_HASH" -> Some Grace_hash
  | "SORT_MERGE" -> Some Sort_merge
  | "FUSION_JOIN" -> Some Fusion_join
  | _ -> None
