module Value = Mood_model.Value
module Codec = Mood_model.Codec
module Store = Mood_storage.Store
module Extent = Mood_storage.Extent
module Btree = Mood_storage.Btree
module Hash_index = Mood_storage.Hash_index
module Buffer_pool = Mood_storage.Buffer_pool
module Wal = Mood_storage.Wal

type t = {
  store : Store.t;
  ext : Extent.t;
  key_index : int Btree.t;
  data_index : int Hash_index.t;
}

type checkpoint = { cp_image : (int * Value.t) list; cp_lsn : Wal.lsn }

let create ~store () =
  {
    store;
    ext = Extent.create ~store ();
    (* A low order and small buckets so a few hundred operations force
       plenty of node splits and bucket extensions. *)
    key_index = Store.new_btree store ~order:4 ~unique:true ~key_size:8 ();
    data_index = Store.new_hash_index store ~bucket_capacity:4 ();
  }

let store t = t.store

let extent t = t.ext

(* A row is a one-attribute tuple, so a PAX mirror can columnarize it. *)
let value_of_data data = Value.Tuple [ ("data", Value.Str data) ]

let data_of_value = function
  | Value.Tuple [ ("data", Value.Str s) ] -> s
  | v -> failwith ("Sim.Table: non-string payload " ^ Value.to_string v)

(* Extent payloads are codec-encoded [Tuple [("#slot", Int s); ("#value", v)]]. *)
let decode_payload payload =
  match Codec.decode payload with
  | Value.Tuple [ ("#slot", Value.Int slot); ("#value", v) ] -> (slot, v)
  | _ -> failwith "Sim.Table: unrecognized WAL payload"

let index_insert t ~key ~data =
  Btree.insert t.key_index ~key:(Value.Int key) key;
  Hash_index.insert t.data_index ~key:(Value.Str data) key

let index_delete t ~key ~data =
  ignore (Btree.delete t.key_index ~key:(Value.Int key) (fun p -> p = key));
  ignore (Hash_index.delete t.data_index ~key:(Value.Str data) (fun p -> p = key))

let get t key = Option.map data_of_value (Extent.get t.ext key)

let insert t ~txn ~key ~data =
  Extent.insert_at t.ext ~txn ~slot:key (value_of_data data);
  index_insert t ~key ~data

let update t ~txn ~key ~data =
  let before =
    match get t key with
    | Some d -> d
    | None -> failwith "Sim.Table.update: missing key"
  in
  ignore (Extent.update t.ext ~txn ~slot:key (value_of_data data));
  ignore (Hash_index.delete t.data_index ~key:(Value.Str before) (fun p -> p = key));
  Hash_index.insert t.data_index ~key:(Value.Str data) key

let delete t ~txn ~key =
  let before =
    match get t key with
    | Some d -> d
    | None -> failwith "Sim.Table.delete: missing key"
  in
  ignore (Extent.delete t.ext ~txn key);
  index_delete t ~key ~data:before

(* Live rollback: compensate this transaction's logged effects, newest
   first, keeping the indexes in step, then log the Abort. The
   compensations themselves are not logged — recovery treats a
   transaction that aborted after the checkpoint as a loser and undoes
   its image-resident effects from the log. *)
let abort t ~txn =
  let wal = Store.wal t.store in
  List.iter
    (fun record ->
      match record with
      | Wal.Insert { payload; _ } ->
          let key, v = decode_payload payload in
          ignore (Extent.delete t.ext key);
          index_delete t ~key ~data:(data_of_value v)
      | Wal.Delete { before; _ } ->
          let key, v = decode_payload before in
          Extent.insert_at t.ext ~slot:key v;
          index_insert t ~key ~data:(data_of_value v)
      | Wal.Update { before; after; _ } ->
          let key, v_before = decode_payload before in
          let _, v_after = decode_payload after in
          ignore (Extent.update t.ext ~slot:key v_before);
          ignore
            (Hash_index.delete t.data_index
               ~key:(Value.Str (data_of_value v_after))
               (fun p -> p = key));
          Hash_index.insert t.data_index
            ~key:(Value.Str (data_of_value v_before))
            key
      | _ -> ())
    (Wal.undo_records wal txn);
  ignore (Wal.append wal (Wal.Abort txn))

(* Idempotent upsert redo, indexes kept in step: what a replica runs
   when a shipped transaction commits. A re-delivered record finds the
   slot already holding the after-image and is a no-op, so applying a
   batch twice converges — the property the replication stream leans
   on after a torn connection. Unlogged: the replica's durability is
   the primary's log, not its own. *)
let apply_redo t record =
  let upsert payload =
    let key, v = decode_payload payload in
    match Extent.get t.ext key with
    | Some old ->
        if old <> v then begin
          ignore (Extent.update t.ext ~slot:key v);
          ignore
            (Hash_index.delete t.data_index
               ~key:(Value.Str (data_of_value old))
               (fun p -> p = key));
          Hash_index.insert t.data_index ~key:(Value.Str (data_of_value v)) key
        end
    | None ->
        Extent.insert_at t.ext ~slot:key v;
        index_insert t ~key ~data:(data_of_value v)
  in
  match record with
  | Wal.Insert { payload; _ } -> upsert payload
  | Wal.Update { after; _ } -> upsert after
  | Wal.Delete { before; _ } -> (
      let key, _ = decode_payload before in
      match Extent.get t.ext key with
      | Some old ->
          ignore (Extent.delete t.ext key);
          index_delete t ~key ~data:(data_of_value old)
      | None -> () (* already gone: re-delivered delete *))
  | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ | Wal.Checkpoint _ | Wal.Prepare _ | Wal.Decision _ -> ()

(* Inverse of [apply_redo], same idempotence: scrubs one record's
   effect out of the image (a bootstrap snapshot carries in-flight
   transactions' effects; the replica backs them out and re-buffers
   them until the stream resolves each with Commit or Abort). *)
let apply_undo t record =
  let restore payload =
    let key, v = decode_payload payload in
    match Extent.get t.ext key with
    | Some old ->
        if old <> v then begin
          ignore (Extent.update t.ext ~slot:key v);
          ignore
            (Hash_index.delete t.data_index
               ~key:(Value.Str (data_of_value old))
               (fun p -> p = key));
          Hash_index.insert t.data_index ~key:(Value.Str (data_of_value v)) key
        end
    | None ->
        Extent.insert_at t.ext ~slot:key v;
        index_insert t ~key ~data:(data_of_value v)
  in
  match record with
  | Wal.Insert { payload; _ } -> (
      let key, _ = decode_payload payload in
      match Extent.get t.ext key with
      | Some old ->
          ignore (Extent.delete t.ext key);
          index_delete t ~key ~data:(data_of_value old)
      | None -> ())
  | Wal.Delete { before; _ } -> restore before
  | Wal.Update { before; _ } -> restore before
  | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ | Wal.Checkpoint _ | Wal.Prepare _ | Wal.Decision _ -> ()

let contents t =
  List.sort compare
    (Extent.fold t.ext ~init:[] ~f:(fun acc slot v ->
         (slot, data_of_value v) :: acc))

(* Raw image operations for replica bootstrap: slot-faithful install
   of a snapshot binding, and a full wipe before a re-bootstrap. Both
   keep the indexes in step and log nothing. *)
let install_at t ~slot v =
  Extent.insert_at t.ext ~slot v;
  index_insert t ~key:slot ~data:(data_of_value v)

let clear t =
  List.iter
    (fun (key, data) ->
      ignore (Extent.delete t.ext key);
      index_delete t ~key ~data)
    (contents t)

let checkpoint t ~active =
  Buffer_pool.flush (Store.buffer t.store);
  let image = Extent.fold t.ext ~init:[] ~f:(fun acc s v -> (s, v) :: acc) in
  let wal = Store.wal t.store in
  let cp_lsn = Wal.append wal (Wal.Checkpoint active) in
  Wal.flush wal;
  (* Install-after-durable: reached only if the flush survived. *)
  { cp_image = List.rev image; cp_lsn }

let rebuild_indexes t =
  Extent.scan t.ext ~f:(fun slot v ->
      index_insert t ~key:slot ~data:(data_of_value v))

(* Restart: build a fresh table over a fresh store, install the base
   image, run the WAL's undo-then-redo pass against the heap, then
   rebuild both indexes by scanning it. [skip_undo] deliberately breaks
   the protocol (negative testing): losers' image-resident effects
   survive. *)
let recover ?(skip_undo = false) ~wal ~checkpoint () =
  let store = Store.create ~buffer_capacity:64 () in
  let t = create ~store () in
  let checkpoint_lsn =
    match checkpoint with
    | None -> 0
    | Some { cp_image; cp_lsn } ->
        List.iter (fun (slot, v) -> Extent.insert_at t.ext ~slot v) cp_image;
        cp_lsn
  in
  let redo record =
    match record with
    | Wal.Insert { payload; _ } ->
        let slot, v = decode_payload payload in
        Extent.insert_at t.ext ~slot v
    | Wal.Update { after; _ } ->
        let slot, v = decode_payload after in
        ignore (Extent.update t.ext ~slot v)
    | Wal.Delete { before; _ } ->
        let slot, _ = decode_payload before in
        ignore (Extent.delete t.ext slot)
    | _ -> ()
  in
  let undo record =
    if not skip_undo then
      match record with
      | Wal.Insert { payload; _ } ->
          let slot, _ = decode_payload payload in
          ignore (Extent.delete t.ext slot)
      | Wal.Delete { before; _ } ->
          let slot, v = decode_payload before in
          Extent.insert_at t.ext ~slot v
      | Wal.Update { before; _ } ->
          let slot, v = decode_payload before in
          ignore (Extent.update t.ext ~slot v)
      | _ -> ()
  in
  let analysis = Wal.recover wal ~checkpoint_lsn ~redo ~undo in
  rebuild_indexes t;
  (t, analysis)

(* Structural and cross-structure invariants; [] when healthy. Used
   both as the harness's post-recovery check and standalone on live
   tables. *)
let check t =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter (fun m -> bad "btree: %s" m) (Btree.validate t.key_index);
  List.iter (fun m -> bad "hash: %s" m) (Hash_index.validate t.data_index);
  let records = contents t in
  let n = List.length records in
  let live = List.map fst records in
  List.iter
    (fun (key, data) ->
      (match Btree.search t.key_index ~key:(Value.Int key) with
      | [ p ] when p = key -> ()
      | postings ->
          bad "key %d: btree postings [%s], want [%d]" key
            (String.concat ";" (List.map string_of_int postings))
            key);
      if not (List.mem key (Hash_index.search t.data_index ~key:(Value.Str data)))
      then bad "key %d: unreachable through hash index under %S" key data)
    records;
  let bt_postings = ref 0 in
  Btree.iter t.key_index (fun k postings ->
      bt_postings := !bt_postings + List.length postings;
      List.iter
        (fun p ->
          if not (List.mem p live) then
            bad "btree: dangling posting %s -> %d" (Value.to_string k) p)
        postings);
  if !bt_postings <> n then
    bad "btree holds %d postings for %d heap records" !bt_postings n;
  if Hash_index.entries t.data_index <> n then
    bad "hash index holds %d entries for %d heap records"
      (Hash_index.entries t.data_index)
      n;
  List.rev !problems
