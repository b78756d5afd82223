(* The traced run: an in-process, single-threaded replay of the same
   seeded operation list, on a database built by the same set-up code.

   The untraced replay makes exactly the kernel calls the server's
   workers make (Db.exec for autocommit reads; begin / exec_in_txn /
   logical commit / group force otherwise) and is where counter deltas
   are taken. The traced replay makes the same calls inside spans and,
   beside each statement, re-runs the statement pipeline one layer at a
   time (parse, typecheck, optimize, prepare, run) so each layer gets
   its own span. That re-run is why the layers' self times need not add
   up to the kernel call they decompose; the gap is reported per kind. *)

module Db = Mood.Db
module Ast = Mood_sql.Ast
module Parser = Mood_sql.Parser
module Typecheck = Mood_sql.Typecheck
module Optimizer = Mood_optimizer.Optimizer
module Executor = Mood_executor.Executor
module Wal = Mood_storage.Wal
module Metrics = Mood_obs.Metrics
module Scan_metrics = Mood_column.Scan_metrics

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = { id : int; name : string; req : int; parent : int; t0 : float; t1 : float }

type tracer = { mutable spans : span list; mutable next : int }

let tracer () = { spans = []; next = 0 }

let fresh_id tr =
  let id = tr.next in
  tr.next <- id + 1;
  id

let record tr ~id ~req ~parent name t0 t1 =
  tr.spans <- { id; name; req; parent; t0; t1 } :: tr.spans

let span tr ~req ~parent name f =
  let id = fresh_id tr in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  record tr ~id ~req ~parent name t0 (Unix.gettimeofday ());
  r

let dur s = s.t1 -. s.t0

(* Self time: duration minus the time the span's children cover. *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  fun s -> dur s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)

let write_spans path spans =
  let self = self_times spans in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\treq\tparent\tname\tstart_us\tdur_us\tself_us\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\t%.1f\n" s.id s.req s.parent s.name
            ((s.t0 -. base) *. 1e6) (dur s *. 1e6) (self s *. 1e6))
        (List.rev spans))

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let ok_or_fail sql = function
  | Ok r -> r
  | Error _ -> failwith ("replay: statement failed: " ^ sql)

(* What the traced replay records beside its spans. *)
type traced = {
  tr : tracer;
  ops : Spec.op array;            (* by request id *)
  core_words : float array;       (* minor words in each request's kernel calls *)
  mutable run_words : float;      (* minor words inside executor.run spans *)
  executed : (string, int) Hashtbl.t;  (* SELECT text -> executions *)
}

(* The statement pipeline, one layer per span. DML cannot be re-run
   without side effects, and lib/core exposes no DML entry point below
   [Db.exec_in_txn], so a DML statement gets only its parse and
   typecheck spans: its execution shows in the kernel call and in the
   per-kind gap, never in executor.run. *)
let decompose t db ~req ~parent sql =
  let sp name f = span t.tr ~req ~parent name f in
  let stmt = sp "sql.parse" (fun () -> Parser.parse sql) in
  sp "sql.typecheck" (fun () -> Typecheck.check_statement ~catalog:(Db.catalog db) stmt);
  match stmt with
  | Ast.Select q ->
      let o = sp "optimizer.optimize" (fun () -> Optimizer.optimize (Db.optimizer_env db) q) in
      let p = sp "executor.prepare" (fun () -> Executor.prepare o.Optimizer.plan) in
      let w0 = Gc.minor_words () in
      ignore (sp "executor.run" (fun () -> Executor.run_prepared (Db.executor_env db) p));
      t.run_words <- t.run_words +. (Gc.minor_words () -. w0);
      Hashtbl.replace t.executed sql
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.executed sql))
  | _ -> ()

(* Wraps each kernel call of a request. *)
type wrap = { call : 'a. string -> (unit -> 'a) -> 'a }

(* One logical operation through the kernel calls the server makes.
   [core] wraps each kernel call; [after] runs beside each statement. *)
let run_request db ~core ~after (op : Spec.op) =
  let core name f = core.call name f in
  let wal = Mood_storage.Store.wal (Db.store db) in
  match op.Spec.stmts with
  | [ sql ] when (not op.Spec.txn) && Db.read_only_text sql ->
      ignore (ok_or_fail sql (core "core.exec" (fun () -> Db.exec db sql)));
      after sql
  | stmts ->
      let s = core "core.begin" (fun () -> Db.begin_session_txn db) in
      List.iter
        (fun sql ->
          ignore (ok_or_fail sql (core "core.exec_in_txn" (fun () -> Db.exec_in_txn db s sql)));
          after sql)
        stmts;
      core "core.commit" (fun () ->
          let lsn = Db.commit_session_txn_nodurable db s in
          ignore (Wal.force_group wal lsn))

type untraced = {
  request_us : float array;  (* each request's kernel calls, by request id *)
  delta : Metrics.snapshot;
  io_s : float;
  major : int;
  statements : int;
  dml : int;
  commits : int;
}

let untraced_replay db ops =
  let before = Db.metrics_snapshot db in
  let io0 = Db.io_elapsed db in
  let gc0 = Gc.quick_stat () in
  let statements = ref 0 and dml = ref 0 and commits = ref 0 in
  let request_us = Array.make (List.length ops) 0. in
  List.iteri
    (fun req (op : Spec.op) ->
      let t0 = Unix.gettimeofday () in
      run_request db ~core:{ call = (fun _ f -> f ()) } ~after:(fun _ -> ()) op;
      request_us.(req) <- (Unix.gettimeofday () -. t0) *. 1e6;
      List.iter
        (fun sql ->
          incr statements;
          if not (Db.read_only_text sql) then incr dml)
        op.Spec.stmts;
      if op.Spec.txn || not (Db.read_only_text (List.hd op.Spec.stmts)) then incr commits)
    ops;
  let gc1 = Gc.quick_stat () in
  { request_us;
    delta = Metrics.diff ~before ~after:(Db.metrics_snapshot db);
    io_s = Db.io_elapsed db -. io0;
    major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    statements = !statements;
    dml = !dml;
    commits = !commits
  }

let traced_replay db ops =
  let ops = Array.of_list ops in
  let t =
    { tr = tracer ();
      ops;
      core_words = Array.make (Array.length ops) 0.;
      run_words = 0.;
      executed = Hashtbl.create 256
    }
  in
  Array.iteri
    (fun req op ->
      let parent = fresh_id t.tr in
      let t0 = Unix.gettimeofday () in
      let core name f =
        let w0 = Gc.minor_words () in
        let r = span t.tr ~req ~parent name f in
        t.core_words.(req) <- t.core_words.(req) +. (Gc.minor_words () -. w0);
        r
      in
      run_request db ~core:{ call = core } ~after:(decompose t db ~req ~parent) op;
      record t.tr ~id:parent ~req ~parent:(-1) "request" t0 (Unix.gettimeofday ()))
    ops;
  t

(* µs of every span named [name]. *)
let durations t name =
  let s = Sample.create () in
  List.iter (fun sp -> if sp.name = name then Sample.add s (dur sp *. 1e6)) t.tr.spans;
  s

(* Per request, µs spent in kernel calls, in the decomposition's layer
   spans, and in its executor.run spans (0 for a request that runs no
   SELECT). *)
let per_request t =
  let n = Array.length t.ops in
  let core = Array.make n 0. and layers = Array.make n 0. and run = Array.make n 0. in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let us = dur s *. 1e6 in
        if String.starts_with ~prefix:"core." s.name then core.(s.req) <- core.(s.req) +. us
        else begin
          layers.(s.req) <- layers.(s.req) +. us;
          if s.name = "executor.run" then run.(s.req) <- run.(s.req) +. us
        end
      end)
    t.tr.spans;
  (core, layers, run)

(* ------------------------------------------------------------------ *)
(* Operator reports and probes                                          *)

let op_classes = [ "BIND"; "SELECT"; "JOIN"; "GROUP"; "PROJECT"; "VSCAN"; "INDSEL" ]

let op_class label =
  let stop = ref (String.length label) in
  String.iteri (fun i c -> if (c = '(' || c = '[') && i < !stop then stop := i) label;
  String.sub label 0 !stop

(* Exclusive µs per operator class: inclusive time minus the inclusive
   time of the operator's direct inputs (reports come in pre-order). *)
let self_by_class (reports : Executor.op_report list) =
  let a = Array.of_list reports in
  let n = Array.length a in
  let acc = Hashtbl.create 8 in
  Array.iteri
    (fun i r ->
      let d = r.Executor.r_depth in
      let children = ref 0. and j = ref (i + 1) in
      while !j < n && a.(!j).Executor.r_depth > d do
        if a.(!j).Executor.r_depth = d + 1 then children := !children +. a.(!j).Executor.r_time;
        incr j
      done;
      let c = op_class r.Executor.r_label in
      Hashtbl.replace acc c
        (((r.Executor.r_time -. !children) *. 1e6)
        +. Option.value ~default:0. (Hashtbl.find_opt acc c)))
    a;
  acc

let qerrors (reports : Executor.op_report list) =
  List.filter_map
    (fun r ->
      match r.Executor.r_est with
      | Some est ->
          let e = Float.max est 1. and act = Float.max (float_of_int r.Executor.r_rows) 1. in
          Some (Float.max (e /. act) (act /. e))
      | None -> None)
    reports

type analysis = {
  op_self_us : (string * float) list;   (* mean per analyzed statement *)
  qerror : float list;
  examined : float;                     (* rows bound, weighted by executions *)
  returned : float;
}

(* [weighted] pairs each statement text with how often the replay ran
   it; probes count once. *)
let analyze db weighted =
  let self = Hashtbl.create 8 in
  let weight = ref 0. and examined = ref 0. and returned = ref 0. and qs = ref [] in
  List.iter
    (fun (sql, w, workload_text) ->
      let rs0 = Scan_metrics.m.Scan_metrics.rows_scanned in
      let result, reports = Db.analyze_query db sql in
      let bound =
        List.fold_left
          (fun a r ->
            match op_class r.Executor.r_label with
            | "BIND" | "INDSEL" | "PATH_INDSEL" | "NAMED" -> a + r.Executor.r_rows
            | _ -> a)
          (Scan_metrics.m.Scan_metrics.rows_scanned - rs0)
          reports
      in
      qs := qerrors reports @ !qs;
      weight := !weight +. w;
      Hashtbl.iter
        (fun c us -> Hashtbl.replace self c ((us *. w) +. Option.value ~default:0. (Hashtbl.find_opt self c)))
        (self_by_class reports);
      if workload_text then begin
        examined := !examined +. (w *. float_of_int bound);
        returned :=
          !returned +. (w *. float_of_int (List.length (Executor.result_values result)))
      end)
    weighted;
  { op_self_us =
      List.map
        (fun c -> (c, Option.value ~default:0. (Hashtbl.find_opt self c) /. Float.max !weight 1.))
        op_classes;
    qerror = !qs;
    examined = !examined;
    returned = !returned
  }

(* Analyzed after every replay besides the workload's own statements:
   Example 8.1, the method probe and its twin, a B-tree point read and
   a PAX count, so every operator class is timed whatever the mix. *)
let probes = [ Spec.example_81; Spec.method_probe; Spec.method_twin; Spec.read_sql 1; Spec.scan_pax_texts.(0) ]

let time_run db sql ~repeats =
  let q = Parser.parse_query sql in
  let o = Optimizer.optimize (Db.optimizer_env db) q in
  let p = Executor.prepare o.Optimizer.plan in
  List.init repeats (fun _ ->
      let t0 = Unix.gettimeofday () in
      ignore (Executor.run_prepared (Db.executor_env db) p);
      (Unix.gettimeofday () -. t0) *. 1e6)

(* The lbweight() predicate's cost over its method-free twin, µs. *)
let method_us db =
  let probe = Sample.median_of (time_run db Spec.method_probe ~repeats:9) in
  let twin = Sample.median_of (time_run db Spec.method_twin ~repeats:9) in
  probe -. twin

(* Autocommit commits timed on their own (µs), so every workload
   reports a commit time even when its mix is read-only. *)
let commit_probe db =
  let wal = Mood_storage.Store.wal (Db.store db) in
  List.init 5 (fun k ->
      let s = Db.begin_session_txn db in
      ignore (ok_or_fail "probe" (Db.exec_in_txn db s (Spec.update_sql k)));
      let t0 = Unix.gettimeofday () in
      let lsn = Db.commit_session_txn_nodurable db s in
      ignore (Wal.force_group wal lsn);
      (Unix.gettimeofday () -. t0) *. 1e6)
