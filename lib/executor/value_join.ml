(* Memory-bounded value joins: canonical/Grace hash, external
   sort-merge and the Odra-style fusion join over collection
   attributes.

   All four share one correctness architecture. Candidate pairs are
   generated from a canonical string key derived from the join
   attribute under [Eval.compare_values]/[cmp_values] semantics
   (collection-valued keys flatten one level, exactly like the
   predicate's existential comparison); every candidate pair is
   deduplicated by (left index, right index) and then re-checked
   against the FULL compiled predicate before a row is emitted. False
   positives are therefore impossible by construction — the key only
   has to be complete (never miss a pair the nested loop would emit),
   which the differential join oracle pins across random schemas,
   duplicates, nulls and spills.

   Spills go through [Store.new_temp_file]: real heap files whose pages
   flow through the buffer pool and simulated disk, so partitioning
   passes are charged, observable ([join.*] metrics) and
   crash-injectable (the spill flush is a deterministic write stream). *)

module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Codec = Mood_model.Codec
module Collection = Mood_algebra.Collection
module Store = Mood_storage.Store
module Heap_file = Mood_storage.Heap_file
module Buffer_pool = Mood_storage.Buffer_pool
module Join_cost = Mood_cost.Join_cost
module Heap = Mood_util.Heap

(* ------------------------------------------------------------------ *)
(* Metrics *)

let partitions_spilled = ref 0
let spill_bytes = ref 0
let merge_passes = ref 0
let fusion_hits = ref 0
let hash_builds = ref 0
let fallbacks = ref 0

let metrics () =
  [ ("join.partitions_spilled", !partitions_spilled);
    ("join.spill_bytes", !spill_bytes);
    ("join.merge_passes", !merge_passes);
    ("join.fusion_hits", !fusion_hits);
    ("join.hash_builds", !hash_builds);
    ("join.fallbacks", !fallbacks)
  ]

let sabotage_skip_rewind = ref false

(* ------------------------------------------------------------------ *)
(* Canonical keys.

   [struct_key] is injective w.r.t. [Value.compare] equality (the order
   used INSIDE containers: Str and Char stay distinct, Null equals
   Null, numerics merge). [elem_key] is injective w.r.t.
   [Eval.compare_values] equality (the top-level predicate order: Null
   never equals anything, Str and Char merge). Strings are
   length-prefixed so concatenation cannot alias. *)

let num_key f = if f = 0. then "n:0" else Printf.sprintf "n:%.17g" f

let str_enc s = Printf.sprintf "%d:%s" (String.length s) s

let rec struct_key (v : Value.t) =
  match v with
  | Value.Null -> "z"
  | Value.Int _ | Value.Long _ | Value.Float _ -> (
      match Value.as_float v with Some f -> num_key f | None -> "z")
  | Value.Str s -> "s:" ^ str_enc s
  | Value.Char c -> "c:" ^ str_enc (String.make 1 c)
  | Value.Bool b -> if b then "b1" else "b0"
  | Value.Ref o -> "r:" ^ Oid.to_string o
  | Value.Tuple fields ->
      "t("
      ^ String.concat "," (List.map (fun (n, x) -> str_enc n ^ "=" ^ struct_key x) fields)
      ^ ")"
  | Value.Set xs -> "S(" ^ String.concat "," (List.map struct_key xs) ^ ")"
  | Value.List xs -> "L(" ^ String.concat "," (List.map struct_key xs) ^ ")"

let elem_key (v : Value.t) =
  match v with
  | Value.Null -> None
  | Value.Int _ | Value.Long _ | Value.Float _ ->
      Option.map num_key (Value.as_float v)
  | Value.Str s -> Some ("s:" ^ str_enc s)
  | Value.Char c -> Some ("s:" ^ str_enc (String.make 1 c))
  | Value.Bool b -> Some (if b then "b1" else "b0")
  | Value.Ref o -> Some ("r:" ^ Oid.to_string o)
  | Value.Tuple _ -> Some ("T:" ^ struct_key v)
  | Value.Set _ -> Some ("U:" ^ struct_key v)
  | Value.List _ -> Some ("V:" ^ struct_key v)

let keys_of_value (v : Value.t) =
  match v with
  | Value.Set xs | Value.List xs ->
      List.sort_uniq String.compare (List.filter_map elem_key xs)
  | v -> ( match elem_key v with None -> [] | Some k -> [ k ])

(* ------------------------------------------------------------------ *)
(* Spill (de)serialization: a tagged row round-trips through the value
   codec, like extent records do. *)

let value_of_row (row : Eval.row) =
  Value.List
    (List.map
       (fun (var, (it : Collection.item)) ->
         Value.Tuple
           [ ("v", Value.Str var);
             ("c", Value.Int (match it.Collection.oid with Some o -> Oid.class_id o | None -> -1));
             ("s", Value.Int (match it.Collection.oid with Some o -> Oid.slot o | None -> -1));
             ("x", it.Collection.value)
           ])
       row)

let row_of_value v : Eval.row =
  match v with
  | Value.List entries ->
      List.map
        (fun e ->
          match e with
          | Value.Tuple
              [ ("v", Value.Str var); ("c", Value.Int c); ("s", Value.Int s); ("x", x) ] ->
              let oid = if c >= 0 then Some (Oid.make ~class_id:c ~slot:s) else None in
              (var, { Collection.oid; value = x })
          | _ -> failwith "Value_join: malformed spill row")
        entries
  | _ -> failwith "Value_join: malformed spill row"

(* One spill record: (side row index, canonical key, row). *)
let spill_record (i, row, key) =
  Value.Tuple
    [ ("i", Value.Int i); ("k", Value.Str key); ("x", value_of_row row) ]

let spill_record_back v =
  match v with
  | Value.Tuple [ ("i", Value.Int i); ("k", Value.Str k); ("x", xv) ] ->
      (i, row_of_value xv, k)
  | _ -> failwith "Value_join: malformed spill record"

(* ------------------------------------------------------------------ *)
(* Shared plumbing *)

type side = { s_rows : Eval.row list; s_key : Compile.expr_fn }

(* (index, row, canonical keys) — keys computed once per row. *)
let expand env (s : side) =
  List.mapi (fun i row -> (i, row, keys_of_value (s.s_key env row))) s.s_rows

(* Emit the pair at most once (nested-loop multiplicity), re-checking
   the full predicate so the key only over-approximates. *)
let try_emit env pred seen out (li, lrow) (ri, rrow) =
  let k = (li, ri) in
  if not (Hashtbl.mem seen k) then begin
    Hashtbl.replace seen k ();
    let merged = lrow @ rrow in
    if pred env merged then out := merged :: !out
  end

let hash_join_tagged env pred seen out lefts rights =
  incr hash_builds;
  let table = Hashtbl.create 64 in
  List.iter
    (fun (ri, rrow, rkeys) -> List.iter (fun k -> Hashtbl.add table k (ri, rrow)) rkeys)
    rights;
  List.iter
    (fun (li, lrow, lkeys) ->
      List.iter
        (fun k ->
          List.iter (fun (ri, rrow) -> try_emit env pred seen out (li, lrow) (ri, rrow))
            (Hashtbl.find_all table k))
        lkeys)
    lefts

(* ------------------------------------------------------------------ *)
(* Spill partitions *)

(* Flatten (i, row, keys) into single-key entries for partitioning. *)
let singles entries =
  List.concat_map (fun (i, row, keys) -> List.map (fun k -> (i, row, k)) keys) entries

let entry_bytes e = Codec.encoded_size (spill_record e)

let sum_bytes entries = List.fold_left (fun acc e -> acc + entry_bytes e) 0 entries

(* Writes the entries to a fresh temp file and flushes it so the writes
   hit the simulated disk deterministically (where crash injection can
   sever them). Records too large for a page stay in the in-memory
   overflow list. Returns (file, overflow). *)
let spill store temps entries =
  let hf = Store.new_temp_file store in
  temps := hf :: !temps;
  incr partitions_spilled;
  let overflow = ref [] in
  List.iter
    (fun e ->
      let bytes = Codec.encode (spill_record e) in
      spill_bytes := !spill_bytes + String.length bytes;
      try ignore (Heap_file.insert hf bytes)
      with Invalid_argument _ -> overflow := e :: !overflow)
    entries;
  Buffer_pool.flush_file (Store.buffer store) ~file:(Heap_file.file_id hf);
  (hf, List.rev !overflow)

let read_back store (hf, overflow) =
  let acc = ref [] in
  Heap_file.scan hf ~f:(fun _rid bytes -> acc := spill_record_back (Codec.decode bytes) :: !acc);
  Store.release_temp_file store hf;
  List.rev_append !acc overflow

(* ------------------------------------------------------------------ *)
(* Grace hash join *)

let max_grace_depth = 4

let grace_hash env store pred seen out lefts rights =
  let temps = ref [] in
  let budget () = max 1 env.Eval.join_mem in
  (* Entries here are single-key; a row with a collection key appears
     once per distinct element key, possibly in different partitions —
     the global (li, ri) dedup keeps the multiset exact. *)
  let rec go ~salt ~depth lefts rights =
    let build_bytes = sum_bytes rights in
    if build_bytes <= budget () || depth >= max_grace_depth then begin
      if build_bytes > budget () then incr fallbacks;
      hash_join_tagged env pred seen out
        (List.map (fun (i, row, k) -> (i, row, [ k ])) lefts)
        (List.map (fun (i, row, k) -> (i, row, [ k ])) rights)
    end
    else begin
      let fanout = min 16 (max 2 ((build_bytes / budget ()) + 1)) in
      let bucket (_, _, key) = Hashtbl.hash (salt, key) mod fanout in
      let split entries =
        let parts = Array.make fanout [] in
        List.iter (fun e -> let b = bucket e in parts.(b) <- e :: parts.(b)) entries;
        Array.map List.rev parts
      in
      let lparts = split lefts and rparts = split rights in
      (* Spill every partition of both sides first (the partitioning
         pass), then join partition pairs one at a time. *)
      let spilled =
        Array.init fanout (fun b -> (spill store temps lparts.(b), spill store temps rparts.(b)))
      in
      Array.iter
        (fun (lspill, rspill) ->
          let l = read_back store lspill and r = read_back store rspill in
          go ~salt:(salt + 1) ~depth:(depth + 1) l r)
        spilled
    end
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun hf -> Store.release_temp_file store hf) !temps)
    (fun () -> go ~salt:0 ~depth:0 (singles lefts) (singles rights))

(* ------------------------------------------------------------------ *)
(* Sort-merge join *)

let key_cmp (_, _, a) (_, _, b) = String.compare a b

(* Sorts single-key entries; when the side overflows the budget the
   initial runs spill to temp files and merge back (one extra
   read+write pass, charged through the disk). *)
let sort_side env store temps entries =
  let budget = max 1 env.Eval.join_mem in
  if sum_bytes entries <= budget then Heap.sort_with_runs ~cmp:key_cmp ~run_length:512 entries
  else begin
    incr merge_passes;
    let runs = ref [] and current = ref [] and current_bytes = ref 0 in
    let close_run () =
      if !current <> [] then begin
        runs := List.sort key_cmp !current :: !runs;
        current := [];
        current_bytes := 0
      end
    in
    List.iter
      (fun e ->
        let b = entry_bytes e in
        if !current_bytes + b > budget then close_run ();
        current := e :: !current;
        current_bytes := !current_bytes + b)
      entries;
    close_run ();
    let spilled = List.rev_map (fun run -> spill store temps run) !runs in
    let runs_back = List.map (fun s -> List.sort key_cmp (read_back store s)) spilled in
    Heap.merge_sorted ~cmp:key_cmp runs_back
  end

let sort_merge env store pred seen out lefts rights =
  let temps = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun hf -> Store.release_temp_file store hf) !temps)
    (fun () ->
      let la = Array.of_list (sort_side env store temps (singles lefts)) in
      let ra = Array.of_list (sort_side env store temps (singles rights)) in
      let nl = Array.length la and nr = Array.length ra in
      let key (_, _, k) = k in
      let li = ref 0 and ri = ref 0 in
      while !li < nl && !ri < nr do
        let c = String.compare (key la.(!li)) (key ra.(!ri)) in
        if c < 0 then incr li
        else if c > 0 then incr ri
        else begin
          (* Duplicate-key sub-block: [li, le) x [ri, re) is a
             cartesian product — every left entry rewinds over the
             whole right block. *)
          let k = key la.(!li) in
          let le = ref !li and re = ref !ri in
          while !le < nl && String.equal (key la.(!le)) k do incr le done;
          while !re < nr && String.equal (key ra.(!re)) k do incr re done;
          let l_last = if !sabotage_skip_rewind then !li else !le - 1 in
          for l = !li to l_last do
            let il, rowl, _ = la.(l) in
            for r = !ri to !re - 1 do
              let ir, rowr, _ = ra.(r) in
              try_emit env pred seen out (il, rowl) (ir, rowr)
            done
          done;
          li := !le;
          ri := !re
        end
      done)

(* ------------------------------------------------------------------ *)
(* Fusion join (Odra): build a hash over the right side once, then
   stream the left side probing per collection element — the collection
   navigation and the probe fuse, so the flattened left side is never
   materialized. *)

let fusion env pred seen out (left : side) rights =
  incr hash_builds;
  let table = Hashtbl.create 64 in
  List.iter
    (fun (ri, rrow, rkeys) -> List.iter (fun k -> Hashtbl.add table k (ri, rrow)) rkeys)
    rights;
  List.iteri
    (fun li lrow ->
      let v = left.s_key env lrow in
      let elems = match v with Value.Set xs | Value.List xs -> xs | v -> [ v ] in
      List.iter
        (fun e ->
          match elem_key e with
          | None -> ()
          | Some k -> (
              match Hashtbl.find_all table k with
              | [] -> ()
              | hits ->
                  incr fusion_hits;
                  List.iter (fun (ri, rrow) -> try_emit env pred seen out (li, lrow) (ri, rrow)) hits))
        elems)
    left.s_rows

(* ------------------------------------------------------------------ *)

let run method_ env ~store ~pred ~left ~right =
  let seen = Hashtbl.create 256 in
  let out = ref [] in
  (match method_ with
  | Join_cost.Hash_join -> hash_join_tagged env pred seen out (expand env left) (expand env right)
  | Join_cost.Grace_hash -> grace_hash env store pred seen out (expand env left) (expand env right)
  | Join_cost.Sort_merge -> sort_merge env store pred seen out (expand env left) (expand env right)
  | Join_cost.Fusion_join -> fusion env pred seen out left (expand env right)
  | Join_cost.Nested_loop | Join_cost.Forward_traversal | Join_cost.Backward_traversal
  | Join_cost.Binary_join_index | Join_cost.Hash_partition ->
      invalid_arg "Value_join.run: not a value-join method");
  List.rev !out
