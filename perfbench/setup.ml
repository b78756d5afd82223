(* Database set-up, shared by the launcher and the traced replay: the
   paper's Vehicle schema at the workload's scale and seed, the B-tree
   on Vehicle(id), PAX layout for Company, the lbweight method body,
   statistics, and one warm-up execution of every statement shape. *)

module Db = Mood.Db
module Wal = Mood_storage.Wal
module Value = Mood_model.Value
module Executor = Mood_executor.Executor

type built = {
  db : Db.t;
  expected : (string * string) list;
      (* fixed statement text -> digest of its rows as the server renders them *)
  sum0 : int;  (* SUM(v.weight) after warm-up *)
}

let fail fmt = Printf.ksprintf failwith fmt

let exec db sql =
  match Db.exec db sql with Ok r -> r | Error m -> fail "setup: %s: %s" sql m

let rows_of = function
  | Db.Rows r -> List.map Value.to_string (Executor.result_values r)
  | _ -> []

let digest rows = Digest.to_hex (Digest.string (String.concat "\n" rows))

(* Statements in one session transaction, committed the way the server
   commits: the logical commit, then the group force covering its LSN. *)
let in_txn db stmts =
  let s = Db.begin_session_txn db in
  List.iter
    (fun sql ->
      match Db.exec_in_txn db s sql with
      | Ok _ -> ()
      | Error _ -> fail "setup: %s failed in a transaction" sql)
    stmts;
  let lsn = Db.commit_session_txn_nodurable db s in
  ignore (Wal.force_group (Mood_storage.Store.wal (Db.store db)) lsn)

let sum_weight db =
  match rows_of (exec db Spec.sum_sql) with
  | [ v ] -> (
      match Spec.int_of_row v with
      | Some n -> n
      | None -> fail "setup: SUM(v.weight) rendered as %S" v)
  | _ -> fail "setup: SUM(v.weight) returned no single row"

let warm_up workload db =
  match workload with
  | Spec.Oltp_point ->
      ignore (exec db (Spec.read_sql 1));
      in_txn db [ Spec.update_sql 1 ];
      in_txn db [ "new VehicleEngine <1000, 2>"; Spec.update_sql 2; Spec.read_sql 2 ];
      []
  | Spec.Scan_paths | Spec.Mixed_rw ->
      if workload = Spec.Mixed_rw then
        in_txn db [ "new Company <'Warmup', 'Nowhere', NULL>"; Spec.update_sql 1 ];
      Array.to_list
        (Array.map
           (fun sql -> (sql, digest (rows_of (exec db sql))))
           (Spec.fixed_texts workload))

let build workload ~seed =
  let db = Db.create () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  ignore
    (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:(Spec.scale workload)
       ~seed ());
  ignore (exec db "CREATE INDEX ON Vehicle (id)");
  ignore (exec db "ALTER CLASS Company SET LAYOUT PAX");
  ignore (exec db "DEFINE METHOD Vehicle::lbweight () Integer { return weight * 2; }");
  (* A new index is invisible to the optimizer until statistics are
     recomputed, and no wire statement does that. *)
  Db.analyze db;
  let expected = warm_up workload db in
  { db; expected; sum0 = sum_weight db }
