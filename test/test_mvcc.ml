(* MVCC snapshot reads: visibility unit tests (no dirty reads,
   read-own-writes, repeatable snapshot, delete visibility, index
   snapshot consistency, abort restore, write skew, GC under an open
   snapshot) plus a randomized differential oracle pinning snapshot
   reads against a serial replay of the committed transactions. *)

module Db = Mood.Db
module Executor = Mood_executor.Executor
module Value = Mood_model.Value
module Prng = Mood_util.Prng

let ok db src =
  match Db.exec db src with
  | Ok r -> r
  | Error m -> Alcotest.failf "unexpected error on %S: %s" src m

let rows db src =
  let r = Db.query db src in
  Executor.result_values r

(* [SELECT x.attr ...] rows come back as singleton tuples. *)
let ints db src =
  List.sort compare
    (List.map
       (function
         | Value.Tuple [ (_, Value.Int n) ] -> n
         | v -> Alcotest.failf "unexpected row %s" (Value.to_string v))
       (rows db src))

let txn_ints db txn src =
  match Db.exec_in_txn db txn src with
  | Ok (Db.Rows r) ->
      List.sort compare
        (List.map
           (function
             | Value.Tuple [ (_, Value.Int n) ] -> n
             | v -> Alcotest.failf "unexpected row %s" (Value.to_string v))
           (Executor.result_values r))
  | Ok _ -> Alcotest.failf "%S: not a row result" src
  | Error Db.Txn_busy -> Alcotest.failf "%S: snapshot read returned BUSY" src
  | Error Db.Txn_deadlock -> Alcotest.failf "%S: snapshot read deadlocked" src
  | Error (Db.Txn_fail m) -> Alcotest.failf "%S: %s" src m
  | Error (Db.Txn_redirect _) -> Alcotest.failf "%S: redirected" src

let txn_exec db txn src =
  match Db.exec_in_txn db txn src with
  | Ok _ -> ()
  | Error Db.Txn_busy -> Alcotest.failf "%S: unexpected BUSY" src
  | Error Db.Txn_deadlock -> Alcotest.failf "%S: unexpected deadlock" src
  | Error (Db.Txn_fail m) -> Alcotest.failf "%S: %s" src m
  | Error (Db.Txn_redirect _) -> Alcotest.failf "%S: redirected" src

let fresh_accounts () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS Acct TUPLE (id Integer, bal Integer)");
  ignore (ok db "new Acct <1, 100>");
  ignore (ok db "new Acct <2, 200>");
  db

(* A standalone SELECT sees only committed state while a writer
   transaction holds exclusive locks — and does not block on them. *)
let test_no_dirty_reads () =
  let db = fresh_accounts () in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Acct a SET bal = 999 WHERE a.id = 1";
  Alcotest.(check (list int))
    "uncommitted write invisible" [ 100 ]
    (ints db "SELECT a.bal FROM Acct a WHERE a.id = 1");
  Db.commit_session_txn db w;
  Alcotest.(check (list int))
    "committed write visible" [ 999 ]
    (ints db "SELECT a.bal FROM Acct a WHERE a.id = 1")

(* A transaction reads its own pending writes; nobody else does. *)
let test_read_own_writes () =
  let db = fresh_accounts () in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Acct a SET bal = 150 WHERE a.id = 1";
  Alcotest.(check (list int))
    "own write visible inside" [ 150 ]
    (txn_ints db w "SELECT a.bal FROM Acct a WHERE a.id = 1");
  Alcotest.(check (list int))
    "still invisible outside" [ 100 ]
    (ints db "SELECT a.bal FROM Acct a WHERE a.id = 1");
  Db.commit_session_txn db w

(* A transaction's snapshot is captured at BEGIN: commits that land
   after it stay invisible for its whole lifetime. *)
let test_repeatable_snapshot () =
  let db = fresh_accounts () in
  let r = Db.begin_session_txn db in
  Alcotest.(check (list int))
    "first read" [ 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 2");
  ignore (ok db "UPDATE Acct a SET bal = 201 WHERE a.id = 2");
  Alcotest.(check (list int))
    "same snapshot after a foreign commit" [ 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 2");
  ignore (ok db "UPDATE Acct a SET bal = 202 WHERE a.id = 2");
  Alcotest.(check (list int))
    "still the capture state" [ 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 2");
  Db.commit_session_txn db r;
  Alcotest.(check (list int))
    "fresh snapshot sees the latest" [ 202 ]
    (ints db "SELECT a.bal FROM Acct a WHERE a.id = 2")

(* Readers never touch the lock manager: a SELECT inside a concurrent
   transaction succeeds while a writer holds the extent exclusively,
   and keeps its own begin-time view across the writer's commit. *)
let test_readers_do_not_block () =
  let db = fresh_accounts () in
  let r = Db.begin_session_txn db in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Acct a SET bal = 0 WHERE a.id = 1";
  Alcotest.(check (list int))
    "read under a foreign X lock" [ 100; 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a");
  Db.commit_session_txn db w;
  Alcotest.(check (list int))
    "writer's commit stays invisible" [ 100; 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a");
  Db.commit_session_txn db r;
  Alcotest.(check (list int))
    "after both: committed state" [ 0; 200 ]
    (ints db "SELECT a.bal FROM Acct a")

(* A committed delete leaves the old object readable by snapshots that
   predate it (the heap slot is gone — the chain serves the read). *)
let test_delete_visibility () =
  let db = fresh_accounts () in
  let r = Db.begin_session_txn db in
  Alcotest.(check (list int))
    "both rows at capture" [ 100; 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a");
  (match ok db "DELETE FROM Acct a WHERE a.id = 1" with
  | Db.Deleted 1 -> ()
  | _ -> Alcotest.fail "delete count");
  Alcotest.(check (list int))
    "deleted row still visible to the old snapshot" [ 100; 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a");
  Db.commit_session_txn db r;
  Alcotest.(check (list int))
    "gone for fresh snapshots" [ 200 ]
    (ints db "SELECT a.bal FROM Acct a")

(* Index postings are removed lazily (deferred below the snapshot
   horizon) and rechecked on fetch: an old snapshot's indexed lookup
   finds its capture-time rows, never rows that moved into the
   predicate after the capture. *)
let test_index_snapshot_consistency () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS Part TUPLE (k Integer, tag Integer)");
  ignore (ok db "CREATE INDEX ON Part (k)");
  ignore (ok db "new Part <1, 10>");
  ignore (ok db "new Part <2, 20>");
  let r = Db.begin_session_txn db in
  Alcotest.(check (list int))
    "k=1 at capture" [ 10 ]
    (txn_ints db r "SELECT p.tag FROM Part p WHERE p.k = 1");
  (* Swap the two rows' keys: the old posting for tag=10 under k=1 is
     deferred (still reachable), the new posting for tag=20 under k=1
     is live but its visible version fails the recheck. *)
  ignore (ok db "UPDATE Part p SET k = 2 WHERE p.tag = 10");
  ignore (ok db "UPDATE Part p SET k = 1 WHERE p.tag = 20");
  Alcotest.(check (list int))
    "k=1 still the capture-time row" [ 10 ]
    (txn_ints db r "SELECT p.tag FROM Part p WHERE p.k = 1");
  Alcotest.(check (list int))
    "k=2 likewise" [ 20 ]
    (txn_ints db r "SELECT p.tag FROM Part p WHERE p.k = 2");
  Db.commit_session_txn db r;
  Alcotest.(check (list int))
    "fresh snapshot sees the swap" [ 20 ]
    (ints db "SELECT p.tag FROM Part p WHERE p.k = 1");
  Alcotest.(check (list int))
    "both ways" [ 10 ]
    (ints db "SELECT p.tag FROM Part p WHERE p.k = 2")

(* Abort pops the pending versions: the chain ends where it started
   and the heap compensation is not re-tracked as a new version. *)
let test_abort_restores () =
  let db = fresh_accounts () in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Acct a SET bal = 1 WHERE a.id = 1";
  txn_exec db w "DELETE FROM Acct a WHERE a.id = 2";
  Db.abort_session_txn db w;
  Alcotest.(check (list int))
    "heap restored" [ 100; 200 ]
    (ints db "SELECT a.bal FROM Acct a");
  (* A snapshot opened after the abort reads the restored state. *)
  let r = Db.begin_session_txn db in
  Alcotest.(check (list int))
    "snapshot over restored state" [ 100; 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a");
  Db.commit_session_txn db r

(* Snapshot isolation, not serializability: two transactions that read
   a cross-class invariant and write disjoint classes both commit —
   the documented write-skew anomaly. Writers conflict only through
   2PL on the extents they write. *)
let test_write_skew_permitted () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS OnCallA TUPLE (duty Integer)");
  ignore (ok db "CREATE CLASS OnCallB TUPLE (duty Integer)");
  ignore (ok db "new OnCallA <1>");
  ignore (ok db "new OnCallB <1>");
  let t1 = Db.begin_session_txn db in
  let t2 = Db.begin_session_txn db in
  (* Both read "someone is on duty" under their snapshots... *)
  Alcotest.(check (list int)) "t1 sees both on duty" [ 1; 1 ]
    (txn_ints db t1 "SELECT a.duty FROM OnCallA a"
     @ txn_ints db t1 "SELECT b.duty FROM OnCallB b");
  Alcotest.(check (list int)) "t2 sees both on duty" [ 1; 1 ]
    (txn_ints db t2 "SELECT a.duty FROM OnCallA a"
     @ txn_ints db t2 "SELECT b.duty FROM OnCallB b");
  (* ...and each takes a different one off duty: disjoint write sets,
     no lock conflict, both commits succeed. *)
  txn_exec db t1 "UPDATE OnCallA a SET duty = 0";
  txn_exec db t2 "UPDATE OnCallB b SET duty = 0";
  Db.commit_session_txn db t1;
  Db.commit_session_txn db t2;
  Alcotest.(check (list int)) "write skew committed" [ 0; 0 ]
    (ints db "SELECT a.duty FROM OnCallA a"
     @ ints db "SELECT b.duty FROM OnCallB b")

(* GC never prunes a version a live snapshot still needs, and prunes
   dead chains once the snapshot closes. *)
let test_gc_respects_open_snapshots () =
  let db = fresh_accounts () in
  let r = Db.begin_session_txn db in
  Alcotest.(check (list int)) "capture" [ 100 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 1");
  for i = 1 to 5 do
    ignore
      (ok db (Printf.sprintf "UPDATE Acct a SET bal = %d WHERE a.id = 1" i))
  done;
  Db.gc_versions db;
  Alcotest.(check (list int))
    "capture survives GC" [ 100 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 1");
  Db.commit_session_txn db r;
  Db.gc_versions db;
  let snap = Db.metrics_snapshot db in
  let stat name =
    match List.assoc_opt name snap with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  Alcotest.(check bool) "versions were created" true (stat "mvcc.versions_created" > 0);
  Alcotest.(check bool) "versions were pruned" true (stat "mvcc.versions_pruned" > 0);
  Alcotest.(check bool) "snapshot reads counted" true (stat "mvcc.snapshot_reads" > 0);
  Alcotest.(check int) "no snapshot left open" 0 (stat "mvcc.snapshots_open");
  ignore (stat "mvcc.gc_runs");
  ignore (stat "mvcc.chain_max");
  Alcotest.(check (list int))
    "latest state after it all" [ 5 ]
    (ints db "SELECT a.bal FROM Acct a WHERE a.id = 1")

(* ------------------------------------------------------------------ *)
(* Differential oracle: randomized interleavings of writer
   transactions, reader transactions and standalone reads. The oracle
   replays committed transactions serially (per-txn pending buffers
   folded into a committed map at commit): every standalone SELECT
   must equal the committed map at that instant, every reader
   transaction must keep reading the committed map captured at its
   BEGIN. Under strict 2PL this equivalence is exactly snapshot
   isolation's contract for reads. *)

let n_keys = 6

type writer = {
  w_txn : Db.session_txn;
  mutable w_pending : (int * int) list; (* key, value — newest first *)
}

type reader = { r_txn : Db.session_txn; r_expected : int array }

let oracle_cycle ~seed =
  let db = Db.create () in
  ignore (Db.exec db "CREATE CLASS Cell TUPLE (id Integer, v Integer)");
  let committed = Array.make n_keys 0 in
  for k = 0 to n_keys - 1 do
    ignore (Db.exec db (Printf.sprintf "new Cell <%d, 0>" k))
  done;
  let rng = Prng.create ~seed in
  let writers = ref [] and readers = ref [] in
  let select_k k = Printf.sprintf "SELECT c.v FROM Cell c WHERE c.id = %d" k in
  let check_against what expected got =
    if got <> [ expected ] then
      Alcotest.failf "seed %d: %s: key read %s, oracle %d" seed what
        (String.concat "," (List.map string_of_int got))
        expected
  in
  let probe_reader r =
    let k = Prng.int rng ~bound:n_keys in
    check_against "reader snapshot" r.r_expected.(k)
      (txn_ints db r.r_txn (select_k k))
  in
  let standalone_read () =
    let k = Prng.int rng ~bound:n_keys in
    check_against "standalone read" committed.(k) (ints db (select_k k))
  in
  let writer_op w =
    let k = Prng.int rng ~bound:n_keys in
    let v = Prng.int rng ~bound:1000 in
    match
      Db.exec_in_txn db w.w_txn
        (Printf.sprintf "UPDATE Cell c SET v = %d WHERE c.id = %d" v k)
    with
    | Ok _ -> w.w_pending <- (k, v) :: w.w_pending
    | Error Db.Txn_busy -> () (* extent held by the other writer; skip *)
    | Error Db.Txn_deadlock ->
        Db.abort_session_txn db w.w_txn;
        writers := List.filter (fun x -> x != w) !writers
    | Error (Db.Txn_fail m) -> Alcotest.failf "seed %d: writer: %s" seed m
    | Error (Db.Txn_redirect _) -> Alcotest.failf "seed %d: redirected" seed
  in
  let commit_writer w =
    Db.commit_session_txn db w.w_txn;
    List.iter (fun (k, v) -> committed.(k) <- v) (List.rev w.w_pending);
    writers := List.filter (fun x -> x != w) !writers
  in
  let abort_writer w =
    Db.abort_session_txn db w.w_txn;
    writers := List.filter (fun x -> x != w) !writers
  in
  for _ = 1 to 160 do
    match Prng.int rng ~bound:10 with
    | 0 when List.length !writers < 2 ->
        writers := { w_txn = Db.begin_session_txn db; w_pending = [] } :: !writers
    | 1 when List.length !readers < 3 ->
        readers :=
          { r_txn = Db.begin_session_txn db; r_expected = Array.copy committed }
          :: !readers
    | 2 -> (
        match !writers with
        | w :: _ -> if Prng.bool rng then commit_writer w else abort_writer w
        | [] -> ())
    | 3 -> (
        match !readers with
        | r :: rest ->
            probe_reader r;
            Db.commit_session_txn db r.r_txn;
            readers := rest
        | [] -> ())
    | 4 | 5 -> standalone_read ()
    | 6 -> List.iter probe_reader !readers
    | _ -> (
        match !writers with
        | w :: _ -> writer_op w
        | [] -> standalone_read ())
  done;
  List.iter abort_writer !writers;
  List.iter probe_reader !readers;
  List.iter (fun r -> Db.commit_session_txn db r.r_txn) !readers;
  Db.gc_versions db;
  for k = 0 to n_keys - 1 do
    check_against "final state" committed.(k) (ints db (select_k k))
  done

let test_differential_oracle () =
  for seed = 1 to 5 do
    oracle_cycle ~seed
  done

(* ------------------------------------------------------------------ *)
(* B+-tree postings under in-transaction and snapshot-overlapped
   UPDATEs                                                             *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* 2000 cells with a B+-tree on [id], analyzed so that [c.id = K] is
   answered by an index selection rather than a scan. *)
let indexed_cells () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS ICell TUPLE (id Integer, v Integer)");
  for k = 1 to 2000 do
    ignore
      (Db.insert db ~class_name:"ICell"
         (Value.Tuple [ ("id", Value.Int k); ("v", Value.Int 0) ]))
  done;
  ignore (ok db "CREATE INDEX ON ICell (id)");
  Db.analyze db;
  (match ok db "EXPLAIN SELECT c.v FROM ICell c WHERE c.id = 42" with
  | Db.Explained plan ->
      Alcotest.(check bool) "plan uses the B+-tree" true
        (contains plan "INDSEL" && contains plan "[B+-tree index]")
  | _ -> Alcotest.fail "EXPLAIN did not return Explained");
  db

let cell db k = ints db (Printf.sprintf "SELECT c.v FROM ICell c WHERE c.id = %d" k)

(* An UPDATE inside a session transaction that keeps the indexed key —
   or changes it and changes it back — must leave the key's posting in
   place after commit. *)
let test_index_survives_txn_update () =
  let db = indexed_cells () in
  let s = Db.begin_session_txn db in
  txn_exec db s "UPDATE ICell c SET v = 5 WHERE c.id = 42";
  txn_exec db s "UPDATE ICell c SET id = 4242 WHERE c.id = 7";
  txn_exec db s "UPDATE ICell c SET id = 7, v = 9 WHERE c.id = 4242";
  Db.commit_session_txn db s;
  Alcotest.(check (list int)) "non-key update: row still indexed" [ 5 ] (cell db 42);
  Alcotest.(check (list int)) "key changed back: row still indexed" [ 9 ] (cell db 7);
  Alcotest.(check (list int)) "transient key gone" [] (cell db 4242)

(* The same for an autocommit UPDATE made while another transaction's
   snapshot is open (the removal is deferred until it closes). *)
let test_index_survives_update_beside_snapshot () =
  let db = indexed_cells () in
  let reader = Db.begin_session_txn db in
  ignore (ok db "UPDATE ICell c SET v = 6 WHERE c.id = 43");
  Alcotest.(check (list int)) "reader keeps its snapshot" [ 0 ]
    (txn_ints db reader "SELECT c.v FROM ICell c WHERE c.id = 43");
  Db.commit_session_txn db reader;
  Alcotest.(check (list int)) "row still indexed" [ 6 ] (cell db 43)

(* ------------------------------------------------------------------ *)
(* One statement pipeline: [exec] and [exec_in_txn] agree              *)

let items () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS Item TUPLE (n Integer)");
  List.iter (fun i -> ignore (ok db (Printf.sprintf "new Item <%d>" i))) [ 1; 2; 3; 4; 5 ];
  Db.analyze db;
  db

let kind_of_result = function
  | Db.Rows _ -> "rows"
  | Db.Explained _ -> "explained"
  | Db.Object_created _ -> "created"
  | Db.Updated _ -> "updated"
  | Db.Deleted _ -> "deleted"
  | Db.Class_created _ -> "class"
  | Db.Object_named _ -> "named"
  | Db.Layout_altered _ | Db.Index_created _ | Db.Method_defined _ | Db.Method_dropped _
  | Db.Name_dropped _ ->
      "other ddl"

let kind_of_message m =
  let starts p = String.length m >= String.length p && String.sub m 0 (String.length p) = p in
  if starts "NOT_PRIMARY: " then "redirect"
  else if starts "parse error: " then "parse error"
  else if starts "type error: " then "type error"
  else if m = "extent is locked by another transaction" then "busy"
  else "error"

let autocommit_kind db src =
  match Db.exec db src with Ok r -> kind_of_result r | Error m -> kind_of_message m

let txn_kind db s src =
  match Db.exec_in_txn db s src with
  | Ok r -> kind_of_result r
  | Error (Db.Txn_fail m) -> kind_of_message m
  | Error (Db.Txn_busy | Db.Txn_deadlock) -> "busy"
  | Error (Db.Txn_redirect _) -> "redirect"

(* Every statement form through both scopes: same result kind or error
   class. [sql] gets a per-scope tag for forms that must not collide
   (a class or a name defined twice). *)
let test_pipeline_parity () =
  let forms =
    [ ("cached SELECT", false, (fun _ -> "SELECT i FROM Item i WHERE i.n > 1"), "rows");
      ("uncached SELECT", false, (fun tag -> "SELECT i FROM Item i WHERE i.n > " ^ tag), "rows");
      ("EXPLAIN", false, (fun _ -> "EXPLAIN SELECT i FROM Item i"), "explained");
      ("EXPLAIN ANALYZE", false, (fun _ -> "EXPLAIN ANALYZE SELECT i FROM Item i"), "explained");
      ("SET knob", false, (fun _ -> "SET JOIN_MEM 65536"), "explained");
      ("NEW", false, (fun _ -> "new Item <9>"), "created");
      ("UPDATE", false, (fun _ -> "UPDATE Item i SET n = 8 WHERE i.n = 9"), "updated");
      ("DELETE", false, (fun _ -> "DELETE FROM Item i WHERE i.n = 8"), "deleted");
      ("DDL", false, (fun tag -> "CREATE CLASS Extra" ^ tag ^ " TUPLE (x Integer)"), "class");
      ( "NAME",
        false,
        (fun tag -> "NAME first" ^ tag ^ " AS SELECT i FROM Item i WHERE i.n = 1"),
        "named" );
      ("parse error", false, (fun _ -> "SELEKT i FROM Item i"), "parse error");
      ("type error", false, (fun _ -> "SELECT i FROM Item i WHERE i.nope = 1"), "type error");
      ("NOT_PRIMARY", true, (fun _ -> "new Item <7>"), "redirect")
    ]
  in
  let db = items () in
  ignore (ok db "SELECT i FROM Item i WHERE i.n > 1");
  List.iter
    (fun (label, replica, sql, expected) ->
      if replica then Db.set_role db (Db.Replica "10.0.0.1:7000");
      Alcotest.(check string) (label ^ " via exec") expected (autocommit_kind db (sql "1"));
      let s = Db.begin_session_txn db in
      Alcotest.(check string) (label ^ " via exec_in_txn") expected (txn_kind db s (sql "2"));
      Db.commit_session_txn db s;
      Db.set_role db Db.Primary)
    forms;
  Db.set_role db (Db.Replica "10.0.0.1:7000");
  Alcotest.(check (result unit string))
    "NOT_PRIMARY text" (Error "NOT_PRIMARY: this node is read-only; retry at 10.0.0.1:7000")
    (Result.map ignore (Db.exec db "DELETE FROM Item i WHERE i.n = 1"))

(* The run-total row count of a rendered EXPLAIN ANALYZE. *)
let analyzed_rows text =
  match List.find_opt (fun l -> contains l "actual rows: ") (String.split_on_char '\n' text) with
  | Some line -> Scanf.sscanf line "actual rows: %d" Fun.id
  | None -> Alcotest.failf "no actual rows in %S" text

(* EXPLAIN ANALYZE inside a transaction reads what the SELECT reads:
   the BEGIN snapshot, not rows committed since. *)
let test_explain_analyze_reads_begin_snapshot () =
  let db = items () in
  let s = Db.begin_session_txn db in
  ignore (ok db "new Item <6>");
  let selected = List.length (txn_ints db s "SELECT i.n FROM Item i") in
  Alcotest.(check int) "SELECT sees the BEGIN snapshot" 5 selected;
  (match Db.exec_in_txn db s "EXPLAIN ANALYZE SELECT i.n FROM Item i" with
  | Ok (Db.Explained text) ->
      Alcotest.(check int) "EXPLAIN ANALYZE actual rows = SELECT rows" selected
        (analyzed_rows text)
  | _ -> Alcotest.fail "in-txn EXPLAIN ANALYZE failed");
  Db.commit_session_txn db s

(* With snapshot reads on, EXPLAIN ANALYZE beside an open writer runs
   on a snapshot in both scopes, as the plain SELECT does. *)
let test_explain_analyze_beside_writer () =
  let db = items () in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Item i SET n = 50 WHERE i.n = 5";
  (match Db.exec db "EXPLAIN ANALYZE SELECT i FROM Item i" with
  | Ok (Db.Explained text) -> Alcotest.(check int) "autocommit actual rows" 5 (analyzed_rows text)
  | Ok _ -> Alcotest.fail "autocommit EXPLAIN ANALYZE: wrong result"
  | Error m -> Alcotest.failf "autocommit EXPLAIN ANALYZE: %s" m);
  let r = Db.begin_session_txn db in
  (match txn_kind db r "EXPLAIN ANALYZE SELECT i FROM Item i" with
  | "explained" -> ()
  | k -> Alcotest.failf "in-txn EXPLAIN ANALYZE returned %s" k);
  Db.commit_session_txn db r;
  Db.commit_session_txn db w

(* Every statement feeds the accounting stage, in-transaction DML
   included. *)
let test_latency_counts_every_statement () =
  let db = items () in
  Db.set_slow_query_threshold db (Some 3600.);
  let count () =
    match List.assoc_opt "stmt.latency_s.count" (Db.metrics_snapshot db) with
    | Some n -> n
    | None -> 0
  in
  let step label f =
    let before = count () in
    f ();
    Alcotest.(check int) label (before + 1) (count ())
  in
  step "autocommit SELECT" (fun () -> ignore (ok db "SELECT i FROM Item i"));
  step "autocommit DML" (fun () -> ignore (ok db "new Item <6>"));
  let s = Db.begin_session_txn db in
  step "in-txn SELECT" (fun () -> ignore (txn_ints db s "SELECT i.n FROM Item i"));
  step "in-txn DML" (fun () -> txn_exec db s "UPDATE Item i SET n = 7 WHERE i.n = 6");
  Db.commit_session_txn db s

let suites =
  [ ( "mvcc",
      [ Alcotest.test_case "no dirty reads" `Quick test_no_dirty_reads;
        Alcotest.test_case "read own writes" `Quick test_read_own_writes;
        Alcotest.test_case "repeatable snapshot" `Quick test_repeatable_snapshot;
        Alcotest.test_case "readers do not block" `Quick test_readers_do_not_block;
        Alcotest.test_case "delete visibility" `Quick test_delete_visibility;
        Alcotest.test_case "index snapshot consistency" `Quick
          test_index_snapshot_consistency;
        Alcotest.test_case "abort restores" `Quick test_abort_restores;
        Alcotest.test_case "write skew permitted" `Quick test_write_skew_permitted;
        Alcotest.test_case "gc respects open snapshots" `Quick
          test_gc_respects_open_snapshots;
        Alcotest.test_case "differential oracle" `Quick test_differential_oracle;
        Alcotest.test_case "index survives txn update" `Quick test_index_survives_txn_update;
        Alcotest.test_case "index survives update beside snapshot" `Quick
          test_index_survives_update_beside_snapshot
      ] );
    ( "pipeline",
      [ Alcotest.test_case "exec/exec_in_txn parity" `Quick test_pipeline_parity;
        Alcotest.test_case "EXPLAIN ANALYZE reads BEGIN snapshot" `Quick
          test_explain_analyze_reads_begin_snapshot;
        Alcotest.test_case "EXPLAIN ANALYZE beside a writer" `Quick
          test_explain_analyze_beside_writer;
        Alcotest.test_case "latency counts every statement" `Quick
          test_latency_counts_every_statement
      ] )
  ]
