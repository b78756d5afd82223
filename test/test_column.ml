(* Tests for the columnar subsystem: the PAX page codec (round-trip
   fuzz over nulls, empty strings, wide strings, RLE and dictionary
   encodings), the derived segment's self-healing and deterministic
   rebuilds, the ANALYZE-driven dictionary chooser, and the
   vectorized-vs-row differential oracle. *)

module Db = Mood.Db
module Catalog = Mood_catalog.Catalog
module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Pax = Mood_column.Pax
module Pax_store = Mood_column.Pax_store
module Batch = Mood_column.Batch
module Scan_metrics = Mood_column.Scan_metrics
module Heap_file = Mood_storage.Heap_file
module Scan_oracle = Mood_sim.Scan_oracle
module Prng = Mood_util.Prng

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let ok db src =
  match Db.exec db src with
  | Ok r -> r
  | Error m -> Alcotest.failf "unexpected error on %S: %s" src m

(* ------------------------------------------------------------------ *)
(* Codec round-trip fuzz                                               *)

let fuzz_schema =
  [| ("a", Pax.KInt); ("b", Pax.KFloat); ("c", Pax.KStr); ("d", Pax.KOther) |]

let gen_string rng =
  match Prng.int rng ~bound:8 with
  | 0 -> ""  (* empty string: a value, not a NULL *)
  | 1 -> String.make (200 + Prng.int rng ~bound:100) 'w'  (* wide *)
  | 2 | 3 -> "dup"  (* duplicate-heavy: dictionary bait *)
  | _ -> Printf.sprintf "s%d" (Prng.int rng ~bound:1000)

let gen_cell rng kind =
  if Prng.int rng ~bound:5 = 0 then Value.Null
  else
    match kind with
    | Pax.KInt ->
        if Prng.bool rng then Value.Int (Prng.int rng ~bound:8)
        else Value.Int ((Prng.int rng ~bound:1000) * 10_000_000)
    | Pax.KFloat -> Value.Float (float_of_int (Prng.int rng ~bound:100) /. 8.)
    | Pax.KStr -> Value.Str (gen_string rng)
    | Pax.KOther ->
        Value.set (List.init (Prng.int rng ~bound:3) (fun i -> Value.Int i))

let gen_tuple rng =
  Value.Tuple
    (Array.to_list
       (Array.map (fun (name, kind) -> (name, gen_cell rng kind)) fuzz_schema))

let test_codec_roundtrip_fuzz () =
  let rng = Prng.create ~seed:7 in
  for _round = 1 to 50 do
    let n = 1 + Prng.int rng ~bound:200 in
    let rows = Array.init n (fun _ -> gen_tuple rng) in
    let slots = Array.init n (fun i -> i * 2) in
    let hints =
      match Prng.int rng ~bound:3 with
      | 0 -> [ ("c", Pax.Prefer_dict) ]
      | 1 -> [ ("c", Pax.No_dict) ]
      | _ -> []
    in
    let page = Pax.encode_page ~schema:fuzz_schema ~hints ~slots ~rows in
    let b = Pax.decode_page ~schema:fuzz_schema page in
    Alcotest.(check int) "row count" n b.Batch.n;
    Array.iteri
      (fun i (name, _) ->
        ignore i;
        let col =
          match Batch.column b name with
          | Some c -> c
          | None -> Alcotest.failf "column %s missing" name
        in
        for r = 0 to n - 1 do
          let want =
            match rows.(r) with
            | Value.Tuple fields -> List.assoc name fields
            | _ -> assert false
          in
          let got = Batch.cell col r in
          if Value.compare want got <> 0 then
            Alcotest.failf "round %d cell %s[%d]: wrote %s, read %s" n name r
              (Value.to_string want) (Value.to_string got)
        done)
      fuzz_schema;
    for r = 0 to n - 1 do
      Alcotest.(check int) "slot preserved" slots.(r) b.Batch.slots.(r)
    done
  done

let test_codec_rejects_corruption () =
  let rng = Prng.create ~seed:11 in
  let n = 64 in
  let rows = Array.init n (fun _ -> gen_tuple rng) in
  let slots = Array.init n (fun i -> i) in
  let page = Pax.encode_page ~schema:fuzz_schema ~hints:[] ~slots ~rows in
  (* Flipping any byte past the magic must raise Corrupt, never return
     wrong data silently or crash with an unexpected exception. *)
  let caught = ref 0 in
  for pos = 4 to String.length page - 1 do
    let b = Bytes.of_string page in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
    match Pax.decode_page ~schema:fuzz_schema (Bytes.to_string b) with
    | exception Pax.Corrupt _ -> incr caught
    | _got -> ()
  done;
  (* The checksum covers the whole body, so every flip is caught. *)
  Alcotest.(check int) "every byte flip caught" (String.length page - 4) !caught

let test_rle_pin () =
  (* A constant int column must RLE-encode: its minipage collapses to a
     single run, so the page is far smaller than the same schema over
     distinct values, and the decode counter ticks. *)
  let schema = [| ("k", Pax.KInt) |] in
  let n = 512 in
  let slots = Array.init n (fun i -> i) in
  let constant = Array.init n (fun _ -> Value.Tuple [ ("k", Value.Int 7) ]) in
  let distinct = Array.init n (fun i -> Value.Tuple [ ("k", Value.Int (i * 3)) ]) in
  let page_c = Pax.encode_page ~schema ~hints:[] ~slots ~rows:constant in
  let page_d = Pax.encode_page ~schema ~hints:[] ~slots ~rows:distinct in
  (* The data minipage collapses to one run (~16 bytes vs 8/row); the
     slot vector is identical on both pages, so the saving shows as a
     near-[n*8] size gap. *)
  Alcotest.(check bool) "rle page beats plain"
    true
    (String.length page_c + (n * 4) < String.length page_d);
  let runs0 = Scan_metrics.m.Scan_metrics.rle_runs in
  let b = Pax.decode_page ~schema page_c in
  Alcotest.(check int) "rows" n b.Batch.n;
  for i = 0 to n - 1 do
    if Batch.cell (snd b.Batch.columns.(0)) i <> Value.Int 7 then
      Alcotest.failf "rle cell %d decoded wrong" i
  done;
  Alcotest.(check bool) "rle runs counted" true
    (Scan_metrics.m.Scan_metrics.rle_runs > runs0)

(* ------------------------------------------------------------------ *)
(* Derived segment: determinism, torn pages, healing                   *)

let pax_db () =
  let db = Db.create () in
  ignore
    (ok db
       "CREATE CLASS PaxT TUPLE (k Integer, name String(16), w Float) LAYOUT PAX");
  for i = 1 to 400 do
    ignore
      (ok db
         (Printf.sprintf "new PaxT <%d, '%s', %d.5>" i
            (if i mod 4 = 0 then "steel" else "alloy")
            (i mod 9)))
  done;
  let ps =
    match Catalog.pax_store (Db.catalog db) "PaxT" with
    | Some ps -> ps
    | None -> Alcotest.fail "PAX class has no segment"
  in
  (db, ps)

let test_rebuild_determinism () =
  let _db, ps = pax_db () in
  Pax_store.materialize ps;
  let images0 = Pax_store.page_images ps in
  Alcotest.(check bool) "several pages" true (List.length images0 > 1);
  Pax_store.invalidate_all ps;
  Pax_store.materialize ps;
  let images1 = Pax_store.page_images ps in
  Alcotest.(check bool) "byte-identical rebuild" true (images0 = images1)

let test_torn_page_heals () =
  let db, ps = pax_db () in
  Pax_store.materialize ps;
  let seg = Pax_store.segment ps in
  (* Tear the first chunk of every built page: same-length garbage so
     the in-place update sticks and reassembly fails the checksum. *)
  let torn = ref 0 in
  List.iter
    (fun (_page, rids) ->
      match rids with
      | rid :: _ -> begin
          match Heap_file.get seg rid with
          | Some payload ->
              let garbage = String.make (String.length payload) '\xde' in
              if Heap_file.update seg rid garbage then incr torn
          | None -> ()
        end
      | [] -> ())
    (Pax_store.chunk_rids ps);
  Alcotest.(check bool) "tore some chunks" true (!torn > 0);
  (* The tear corrupted the durable image while a decoded view was in
     memory; model the restart that loses the view, so the next scan
     re-reads (and checksums) the stored bytes. *)
  Pax_store.drop_cached_batches ps;
  let healed0 = Scan_metrics.m.Scan_metrics.pages_healed in
  ignore (ok db "SET SCAN_FORCE VECTOR");
  let r = Db.query db "SELECT COUNT(*), SUM(p.k) FROM PaxT p" in
  ignore (ok db "SET SCAN_FORCE DEFAULT");
  (match Mood_executor.Executor.result_values r with
  | [ Value.Tuple fields ] ->
      Alcotest.(check bool) "count survives torn pages" true
        (List.assoc "COUNT(*)" fields = Value.Int 400);
      Alcotest.(check bool) "sum survives torn pages" true
        (List.assoc "SUM(p.k)" fields = Value.Int (400 * 401 / 2))
  | _ -> Alcotest.fail "unexpected result shape");
  Alcotest.(check bool) "healing counted" true
    (Scan_metrics.m.Scan_metrics.pages_healed > healed0)

(* ------------------------------------------------------------------ *)
(* ANALYZE-driven dictionary chooser                                   *)

let test_dict_chooser () =
  let db = Db.create () in
  ignore
    (ok db
       "CREATE CLASS Dicty TUPLE (lowc String(8), highc String(16)) LAYOUT PAX");
  for i = 1 to 300 do
    ignore
      (ok db
         (Printf.sprintf "new Dicty <'%s', 'unique-%d'>"
            (if i mod 2 = 0 then "even" else "odd")
            i))
  done;
  Db.analyze db;
  let ps =
    match Catalog.pax_store (Db.catalog db) "Dicty" with
    | Some ps -> ps
    | None -> Alcotest.fail "no segment"
  in
  let hints = Pax_store.hints ps in
  Alcotest.(check bool) "low cardinality -> dictionary" true
    (List.assoc_opt "lowc" hints = Some Pax.Prefer_dict);
  (* The pin: a high-cardinality string must NOT be dictionary-encoded. *)
  Alcotest.(check bool) "high cardinality -> no dictionary" true
    (List.assoc_opt "highc" hints = Some Pax.No_dict)

(* ------------------------------------------------------------------ *)
(* End-to-end: DDL, plans, knob, metrics                               *)

let test_pax_end_to_end () =
  let db = Db.create () in
  (match ok db "CREATE CLASS Part TUPLE (pid Integer, cat String(8)) LAYOUT PAX" with
  | Db.Class_created "Part" -> ()
  | _ -> Alcotest.fail "create result");
  for i = 1 to 100 do
    ignore
      (ok db
         (Printf.sprintf "new Part <%d, '%s'>" i
            (if i mod 3 = 0 then "steel" else "alloy")))
  done;
  Db.analyze db;
  let plan = Db.explain db "SELECT COUNT(*) FROM Part p WHERE p.pid > 50" in
  Alcotest.(check bool) "optimizer picks the vectorized scan" true
    (contains plan "VSCAN");
  let b0 = Scan_metrics.m.Scan_metrics.batches in
  let r = Db.query db "SELECT COUNT(*) FROM Part p WHERE p.pid > 50" in
  (match Mood_executor.Executor.result_values r with
  | [ Value.Tuple [ (_, Value.Int 50) ] ] -> ()
  | vs ->
      Alcotest.failf "wrong count: %s"
        (String.concat ";" (List.map Value.to_string vs)));
  Alcotest.(check bool) "batches ticked" true
    (Scan_metrics.m.Scan_metrics.batches > b0);
  (* scan.* flows through the metrics registry. *)
  let snap = Db.metrics_snapshot db in
  Alcotest.(check bool) "scan.batches surfaced" true
    (List.exists (fun (k, _) -> k = "scan.batches") snap);
  (* EXPLAIN ANALYZE carries the batch counts. *)
  let analyzed = Db.explain_analyze db "SELECT COUNT(*) FROM Part p" in
  Alcotest.(check bool) "explain analyze shows batches" true
    (contains analyzed "vectorized:");
  (* The knob forces the row engine; the plan label changes back. *)
  ignore (ok db "SET SCAN_FORCE ROW");
  let plan_row = Db.explain db "SELECT COUNT(*) FROM Part p WHERE p.pid > 50" in
  Alcotest.(check bool) "forced row plan has no vscan" true
    (not (contains plan_row "VSCAN"));
  ignore (ok db "SET SCAN_FORCE DEFAULT");
  (* ALTER back to row layout drops the segment. *)
  (match ok db "ALTER CLASS Part SET LAYOUT ROW" with
  | Db.Layout_altered ("Part", "ROW") -> ()
  | _ -> Alcotest.fail "alter result");
  Alcotest.(check bool) "segment dropped" true
    (Catalog.pax_store (Db.catalog db) "Part" = None);
  let r = Db.query db "SELECT COUNT(*) FROM Part p" in
  (match Mood_executor.Executor.result_values r with
  | [ Value.Tuple [ (_, Value.Int 100) ] ] -> ()
  | _ -> Alcotest.fail "count after layout switch");
  (* And forward again: ALTER ... PAX rebuilds lazily. *)
  (match ok db "ALTER CLASS Part SET LAYOUT PAX" with
  | Db.Layout_altered ("Part", "PAX") -> ()
  | _ -> Alcotest.fail "alter result");
  Alcotest.(check bool) "segment recreated" true
    (Catalog.pax_store (Db.catalog db) "Part" <> None);
  let r = Db.query db "SELECT COUNT(*) FROM Part p" in
  match Mood_executor.Executor.result_values r with
  | [ Value.Tuple [ (_, Value.Int 100) ] ] -> ()
  | _ -> Alcotest.fail "count after switch back"

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)

let test_differential_oracle () =
  let r = Scan_oracle.run ~quota:5 ~base_seed:2026 () in
  Alcotest.(check int) "cycles" 5 r.Scan_oracle.sr_cycles;
  Alcotest.(check bool) "compared real rows" true (r.Scan_oracle.sr_oracle_rows > 0);
  match r.Scan_oracle.sr_violations with
  | [] -> ()
  | (seed, msg) :: _ -> Alcotest.failf "seed %d: %s" seed msg

let test_oracle_catches_sabotage () =
  let r = Scan_oracle.run ~sabotage:true ~quota:2 ~base_seed:2026 () in
  Alcotest.(check bool) "sabotaged null bitmap caught" true
    (r.Scan_oracle.sr_violations <> [])

(* ------------------------------------------------------------------ *)
(* Snapshot scans beside a writer, per-page slot partition             *)

module Executor = Mood_executor.Executor
module Extent = Mood_storage.Extent

let rendered r = List.sort compare (List.map Value.to_string (Executor.result_values r))

(* The same statement under the vectorized and the row engine. *)
let both_engines db run =
  let forced mode =
    ignore (ok db ("SET SCAN_FORCE " ^ mode));
    let b0 = Scan_metrics.m.Scan_metrics.batches in
    let rows = run () in
    (rows, Scan_metrics.m.Scan_metrics.batches - b0)
  in
  let vector, batches = forced "VECTOR" in
  let row, _ = forced "ROW" in
  ignore (ok db "SET SCAN_FORCE DEFAULT");
  Alcotest.(check bool) "VECTOR ran batches" true (batches > 0);
  (vector, row)

let scan_all = "SELECT p.k, p.name FROM Snap p WHERE p.k > 0"

(* A PAX class of three and a half pages; [k] is insertion order, so
   row [k] sits in slot [k - 1]. *)
let snap_db () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS Snap TUPLE (k Integer, name String(16)) LAYOUT PAX");
  let ps =
    match Catalog.pax_store (Db.catalog db) "Snap" with
    | Some ps -> ps
    | None -> Alcotest.fail "PAX class has no segment"
  in
  let rpp = Pax_store.rows_per_page ps in
  for k = 1 to (3 * rpp) + (rpp / 2) do
    ignore (ok db (Printf.sprintf "new Snap <%d, 'n%d'>" k k))
  done;
  (db, rpp)

let in_txn db s q =
  match Db.exec_in_txn db s q with
  | Ok (Db.Rows r) -> rendered r
  | Ok _ -> Alcotest.failf "%S: not a row result" q
  | Error _ -> Alcotest.failf "%S failed in a transaction" q

let txn_ok db s q =
  match Db.exec_in_txn db s q with
  | Ok _ -> ()
  | Error _ -> Alcotest.failf "%S failed in a transaction" q

(* Session A's snapshot must keep reading its capture state through
   both engines while session B commits an insert into the tail page
   and an update and a delete in a middle page, then leaves an insert
   and an update pending. Only the slots A cannot see are resolved
   against the version store, not whole pages. *)
let test_snapshot_beside_writer () =
  let db, rpp = snap_db () in
  let before = rendered (Db.query db scan_all) in
  let a = Db.begin_session_txn db in
  ignore (in_txn db a scan_all);
  let b1 = Db.begin_session_txn db in
  txn_ok db b1 "new Snap <100000, 'tail'>";
  txn_ok db b1 (Printf.sprintf "UPDATE Snap p SET name = 'upd' WHERE p.k = %d" (rpp + 5));
  txn_ok db b1 (Printf.sprintf "DELETE FROM Snap p WHERE p.k = %d" (rpp + 9));
  Db.commit_session_txn db b1;
  let b2 = Db.begin_session_txn db in
  txn_ok db b2 "new Snap <200000, 'pending'>";
  txn_ok db b2 "UPDATE Snap p SET name = 'dirty' WHERE p.k = 3";
  let patched0 = Scan_metrics.m.Scan_metrics.mvcc_patched in
  let vector, row = both_engines db (fun () -> in_txn db a scan_all) in
  Alcotest.(check (list string)) "VECTOR under A = state before B" before vector;
  Alcotest.(check (list string)) "ROW under A = state before B" before row;
  (* Pages 0 (pending update), 1 (update, delete) and 3 (both inserts)
     diverge from A's view; the VECTOR scan ran once. *)
  let patched = Scan_metrics.m.Scan_metrics.mvcc_patched - patched0 in
  Alcotest.(check bool) "patched the diverged slots" true (patched > 0);
  Alcotest.(check bool) "patched fewer than a page per diverged page" true
    (patched < 3 * rpp);
  let render k name =
    Value.to_string (Value.Tuple [ ("p.k", Value.Int k); ("p.name", Value.Str name) ])
  in
  let committed =
    List.sort compare
      (render 100000 "tail"
      :: List.filter_map
           (fun r ->
             if r = render (rpp + 9) (Printf.sprintf "n%d" (rpp + 9)) then None
             else if r = render (rpp + 5) (Printf.sprintf "n%d" (rpp + 5)) then
               Some (render (rpp + 5) "upd")
             else Some r)
           before)
  in
  let vector, row = both_engines db (fun () -> rendered (Db.query db scan_all)) in
  Alcotest.(check (list string)) "fresh snapshot (VECTOR) sees B's commits only" committed vector;
  Alcotest.(check (list string)) "fresh snapshot (ROW) sees B's commits only" committed row;
  Db.abort_session_txn db b2;
  Db.commit_session_txn db a

(* After a warm scan, writes re-partition only the pages they touch;
   the vectorized scan must keep agreeing with the row scan. *)
let test_slot_partition_per_page () =
  let db, rpp = snap_db () in
  let ext = Catalog.own_extent (Db.catalog db) "Snap" in
  let agree label =
    let vector, row = both_engines db (fun () -> rendered (Db.query db scan_all)) in
    Alcotest.(check (list string)) label row vector;
    List.length row
  in
  let n0 = agree "warm scan" in
  (* Fill the tail page and spill into the next one, then jump pages
     ahead of the last. *)
  let next = ref 1_000 in
  let fresh () =
    incr next;
    ignore (ok db (Printf.sprintf "new Snap <%d, 'x'>" !next))
  in
  while Extent.slot_bound ext <= 4 * rpp do
    fresh ()
  done;
  let n1 = agree "insert into a page beyond the last" in
  Alcotest.(check int) "inserted rows counted" (n0 + !next - 1_000) n1;
  let far = Value.Tuple [ ("k", Value.Int 9_999); ("name", Value.Str "far") ] in
  Extent.insert_at ext ~slot:((7 * rpp) + 3) far;
  Alcotest.(check int) "row far beyond the last page" (n1 + 1) (agree "far page");
  ignore
    (ok db (Printf.sprintf "DELETE FROM Snap p WHERE p.k > %d AND p.k <= %d" rpp (2 * rpp)));
  let n2 = agree "delete every row of a middle page" in
  Alcotest.(check int) "middle page emptied" (n1 + 1 - rpp) n2;
  let reused = Value.Tuple [ ("k", Value.Int 7_777); ("name", Value.Str "reused") ] in
  Extent.insert_at ext ~slot:(rpp + 3) reused;
  Alcotest.(check int) "freed slot reused" (n2 + 1) (agree "reuse a freed slot");
  fresh ();
  ignore (agree "insert, scan");
  fresh ();
  Alcotest.(check int) "insert again into the same page" (n2 + 3)
    (agree "insert again into the same page")

let suites =
  [ ( "column",
      [ Alcotest.test_case "codec round-trip fuzz" `Quick test_codec_roundtrip_fuzz;
        Alcotest.test_case "codec rejects corruption" `Quick test_codec_rejects_corruption;
        Alcotest.test_case "rle pin" `Quick test_rle_pin;
        Alcotest.test_case "rebuild determinism" `Quick test_rebuild_determinism;
        Alcotest.test_case "torn page heals" `Quick test_torn_page_heals;
        Alcotest.test_case "analyze dict chooser" `Quick test_dict_chooser;
        Alcotest.test_case "pax end to end" `Quick test_pax_end_to_end;
        Alcotest.test_case "differential oracle" `Quick test_differential_oracle;
        Alcotest.test_case "oracle catches sabotage" `Quick test_oracle_catches_sabotage;
        Alcotest.test_case "snapshot beside a writer" `Quick test_snapshot_beside_writer;
        Alcotest.test_case "slot partition per page" `Quick test_slot_partition_per_page
      ] )
  ]
