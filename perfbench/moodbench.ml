(* MOOD's benchmark program.

     moodbench run --workload W --seed N --seconds S --trace 0|1
     moodbench serve W SEED          (the server launcher, spawned by run)
     moodbench setup-only W SEED     (one timed set-up, spawned by run)
     moodbench reference             (the host-speed reference, spawned by run)

   [run --trace 0] is the end-to-end run over the wire; [--trace 1]
   makes the same end-to-end run and then the in-process traced replay,
   and reports the per-layer metrics. Latency, throughput and set-up
   time are reported scaled to the reference host (reference.ml). Both
   print a table of every figure with its sample count, then one JSON
   line:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   The exit code is non-zero when any correctness check failed. *)

let kind_of_slot w i = (Spec.slots w).(i)

let slot_names = [| "op1"; "op2"; "op3" |]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let row fmt = Printf.printf (fmt ^^ "\n")

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)

let ms x = x *. 1000.

let p50_ms samples = ms (Sample.percentile samples 50.)

(* Latency and throughput are reported scaled to the reference host
   (see "Host speed" in drive.ml): their wall-clock values follow the
   shared host's speed swings, so the traced run reports them instead,
   as client.wall_*. Tail latencies are reported by the traced run too
   (client.tail_ref_ms.opN): their run-to-run spread exceeds any bound a
   regression gate could use. *)
let end_to_end (r : Drive.result) =
  let w = r.Drive.workload in
  [ ("throughput_ref_ops_s", float_of_int (Drive.completed r) /. r.Drive.scaled_elapsed, "1/s") ]
  @ List.init 3 (fun i ->
        ( slot_names.(i) ^ "_p50_ref_ms",
          p50_ms (Drive.scaled_kind_samples r (kind_of_slot w i)),
          "ms" ))
  @ [ ("setup_s", Sample.median_of r.Drive.setup_s, "s");
      ("setup_rss_mb", Sample.median_of r.Drive.setup_rss_mb, "MB");
      ("peak_rss_mb", r.Drive.peak_rss_mb, "MB")
    ]

let print_e2e_table (r : Drive.result) =
  let w = r.Drive.workload in
  row "workload %s (scale %g, %d session(s), seed-derived data), %.2f s measured"
    (Spec.name w) (Spec.scale w) (Spec.sessions w) r.Drive.elapsed;
  row "  %-9s %-4s %8s %10s %10s %10s %10s %10s" "kind" "slot" "samples" "p50_ms" "p90_ms" "p99_ms"
    "p50_ref_ms" "p90_ref_ms";
  List.iter
    (fun k ->
      let s = Drive.kind_samples r k in
      if Sample.count s > 0 then begin
        let slot =
          match List.find_opt (fun i -> kind_of_slot w i = k) [ 0; 1; 2 ] with
          | Some i -> slot_names.(i)
          | None -> "-"
        in
        let scaled = Drive.scaled_kind_samples r k in
        row "  %-9s %-4s %8d %10.4f %10.4f %10.4f %10.4f %10.4f" (Spec.kind_name k) slot
          (Sample.count s) (ms (Sample.percentile s 50.)) (ms (Sample.percentile s 90.))
          (ms (Sample.percentile s 99.)) (ms (Sample.percentile scaled 50.))
          (ms (Sample.percentile scaled 90.))
      end)
    Drive.all_kinds;
  row "  tail percentile for this workload: p%g" (Spec.tail_pct w);
  row "  throughput %.2f ops/s wall, %.2f ops/s on the reference host"
    (float_of_int (Drive.completed r) /. r.Drive.elapsed)
    (float_of_int (Drive.completed r) /. r.Drive.scaled_elapsed);
  let ref_s = r.Drive.speed.Drive.ref_s in
  row "  reference computation: %d timings, p10 %.4f, p50 %.4f, p90 %.4f ms (%.4f ms on the reference host)"
    (Sample.count ref_s) (ms (Sample.percentile ref_s 10.)) (ms (Sample.percentile ref_s 50.))
    (ms (Sample.percentile ref_s 90.)) (ms Reference.nominal_s);
  let seconds l = String.concat " " (List.map (Printf.sprintf "%.4f") l) in
  row "  set-up samples: %s s wall; %s s on the reference host" (seconds r.Drive.setup_wall_s)
    (seconds r.Drive.setup_s);
  row "  attempted %d, failed %d, BUSY retries %d, aborts retried %d"
    (Drive.attempted r) (Drive.failed r)
    (Array.fold_left (fun a s -> a + s.Drive.busy) 0 r.Drive.sessions)
    (Array.fold_left (fun a s -> a + s.Drive.aborts) 0 r.Drive.sessions);
  List.iter (fun p -> row "  CHECK FAILED: %s" p) r.Drive.problems

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)

(* Operations replayed in-process per workload. Each session's stream
   contributes in proportion to the operations it completed in the
   end-to-end run, interleaved evenly, so the replay mirrors the mix
   the server saw. *)
let replay_ops = function Spec.Oltp_point -> 3000 | Spec.Scan_paths -> 300 | Spec.Mixed_rw -> 400

let replay_list (r : Drive.result) ~seed =
  let w = r.Drive.workload in
  let done_ = Array.map (fun s -> float_of_int (max 1 s.Drive.ops)) r.Drive.sessions in
  let total = Array.fold_left ( +. ) 0. done_ in
  let counts =
    Array.map (fun d -> max 1 (int_of_float (float_of_int (replay_ops w) *. d /. total))) done_
  in
  let streams =
    Array.mapi (fun session n -> Array.of_list (Spec.take w ~seed ~session n)) counts
  in
  let taken = Array.make (Array.length counts) 0 in
  let next () =
    (* the session furthest behind its share *)
    let best = ref (-1) in
    Array.iteri
      (fun i n ->
        let lag j = float_of_int (taken.(j) + 1) /. float_of_int counts.(j) in
        if taken.(i) < n && (!best < 0 || lag i < lag !best) then best := i)
      counts;
    let i = !best in
    taken.(i) <- taken.(i) + 1;
    streams.(i).(taken.(i) - 1)
  in
  List.init (Array.fold_left ( + ) 0 counts) (fun _ -> next ())

let ratio a b = if b = 0. then 0. else a /. b

let per_layer (r : Drive.result) ~seed =
  let w = r.Drive.workload in
  let ops = replay_list r ~seed in
  let u = Trace.untraced_replay (Setup.build w ~seed).Setup.db ops in
  let db = (Setup.build w ~seed).Setup.db in
  let t = Trace.traced_replay db ops in
  let traced_us = Sample.sum (Trace.durations t "request") in
  let untraced_us = Array.fold_left ( +. ) 0. u.Trace.request_us in
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  Trace.write_spans
    (Printf.sprintf "perfbench/out/spans-%s-%d.tsv" (Spec.name w) seed)
    t.Trace.tr.Trace.spans;
  let commits = Trace.durations t "core.commit" in
  List.iter (Sample.add commits) (Trace.commit_probe db);
  let weighted =
    Hashtbl.fold (fun sql n acc -> (sql, float_of_int n, true) :: acc) t.Trace.executed []
    @ List.map (fun sql -> (sql, 1., false)) Trace.probes
  in
  let a = Trace.analyze db weighted in
  let method_us = Trace.method_us db in
  let d k = float_of_int (Drive.stat u.Trace.delta k) in
  let sd k = float_of_int (Drive.stat r.Drive.stats_delta k) in
  let q = Sample.create () in
  List.iter (Sample.add q) a.Trace.qerror;
  let slots f unit prefix =
    List.init 3 (fun i -> (prefix ^ "." ^ slot_names.(i), f i, unit))
  in
  (* Per-request figures of the requests whose kind fills slot [i]. *)
  let core, layers, run = Trace.per_request t in
  let of_slot i values =
    let s = Sample.create () in
    Array.iteri
      (fun req (op : Spec.op) -> if op.Spec.kind = kind_of_slot w i then Sample.add s values.(req))
      t.Trace.ops;
    s
  in
  let core_p50 i = Sample.percentile (of_slot i u.Trace.request_us) 50. in
  let e2e_p50_us i = 1e6 *. Sample.percentile (Drive.kind_samples r (kind_of_slot w i)) 50. in
  let hits = d "buffer.hits" and misses = d "buffer.misses" in
  let pc_hits = d "plan_cache.hits" and pc_misses = d "plan_cache.misses" in
  let statements = float_of_int u.Trace.statements in
  let gap i =
    let c = Sample.sum (of_slot i core) in
    100. *. ratio (c -. Sample.sum (of_slot i layers)) c
  in
  let words_per_op i =
    let words = of_slot i t.Trace.core_words in
    ratio (Sample.sum words) (float_of_int (Sample.count words))
  in
  slots
    (fun i ->
      ms (Sample.percentile (Drive.scaled_kind_samples r (kind_of_slot w i)) (Spec.tail_pct w)))
    "ms" "client.tail_ref_ms"
  @ slots (fun i -> p50_ms (Drive.kind_samples r (kind_of_slot w i))) "ms" "client.wall_p50_ms"
  @ [ ( "client.wall_throughput_ops_s",
        float_of_int (Drive.completed r) /. r.Drive.elapsed,
        "1/s" );
      ("client.reference_ms", p50_ms r.Drive.speed.Drive.ref_s, "ms");
      ("client.wall_setup_s", Sample.median_of r.Drive.setup_wall_s, "s")
    ]
  @ slots (fun i -> e2e_p50_us i -. core_p50 i) "us" "server.wire_us"
  @ [ ("server.gc_batch_mean", ratio (sd "server.gc_commits") (sd "server.gc_batches"), "count");
      ("server.busy_rejections", sd "server.busy_rejections", "count")
    ]
  @ slots core_p50 "us" "core.exec_us"
  @ [ ("core.commit_us", Sample.percentile commits 50., "us");
      ("core.plan_cache_hit_ratio", ratio pc_hits (pc_hits +. pc_misses), "ratio");
      ("sql.parse_us", Sample.percentile (Trace.durations t "sql.parse") 50., "us");
      ("sql.typecheck_us", Sample.percentile (Trace.durations t "sql.typecheck") 50., "us");
      ("optimizer.optimize_us", Sample.percentile (Trace.durations t "optimizer.optimize") 50., "us");
      ("optimizer.qerror_p50", Sample.percentile q 50., "ratio");
      ("optimizer.qerror_max", Sample.percentile q 100., "ratio");
      ("optimizer.modeled_io_s", ratio u.Trace.io_s statements, "s");
      ("executor.prepare_us", Sample.percentile (Trace.durations t "executor.prepare") 50., "us")
    ]
  @ slots (fun i -> Sample.percentile (of_slot i run) 50.) "us" "executor.run_us"
  @ List.map (fun (c, us) -> ("executor.op_self_us." ^ c, us, "us")) a.Trace.op_self_us
  @ [ ("executor.rows_examined_per_result", ratio a.Trace.examined a.Trace.returned, "ratio");
      ("executor.minor_words_per_row", ratio t.Trace.run_words a.Trace.examined, "words");
      ("funcmgr.method_us", method_us, "us");
      ( "column.batch_cache_hit_ratio",
        ratio (d "scan.batch_cache_hits") (d "scan.batches"),
        "ratio" );
      ("column.pages_built", d "scan.pages_built", "count");
      ("column.pages_reused", d "scan.pages_reused", "count");
      ("storage.buffer_hit_ratio", ratio hits (hits +. misses), "ratio");
      ("storage.buffer_evictions", d "buffer.evictions", "count");
      ( "storage.disk_reads",
        ratio (d "disk.sequential_reads" +. d "disk.random_reads") statements,
        "count" );
      ("storage.wal_records_per_op", ratio (d "wal.records") (float_of_int (List.length ops)), "count");
      ("storage.wal_forces_per_commit", ratio (d "wal.forces") (float_of_int u.Trace.commits), "count");
      ("storage.lock_waits", sd "locks.waits", "count");
      ("storage.deadlocks", sd "locks.deadlocks", "count");
      ( "storage.mvcc_versions_per_write",
        ratio (d "mvcc.versions_created") (float_of_int u.Trace.dml),
        "count" );
      ( "storage.mvcc_chain_max",
        float_of_int (Drive.stat r.Drive.stats_end "mvcc.chain_max"),
        "count" )
    ]
  @ slots words_per_op "words" "gc.minor_words_per_op"
  @ [ ("gc.major_collections", float_of_int u.Trace.major, "count");
      ("trace.overhead_pct", 100. *. ratio (traced_us -. untraced_us) untraced_us, "%")
    ]
  @ slots gap "%" "trace.gap_pct"

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

(* Set-up samples of an end-to-end run; setup_s is their median. The
   traced run reports no setup_s and takes only the serving launcher's. *)
let e2e_setups = 9

let usage () =
  prerr_endline
    "usage: moodbench run --workload W --seed N --seconds S --trace 0|1";
  exit 2

let workload_arg s =
  match Spec.of_name s with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S\n" s;
      exit 2

let run args =
  let get key default =
    let rec find = function
      | k :: v :: _ when k = key -> v
      | _ :: rest -> find rest
      | [] -> ( match default with Some d -> d | None -> usage ())
    in
    find args
  in
  let w = workload_arg (get "--workload" None) in
  let seed = int_of_string (get "--seed" None) in
  let seconds = float_of_string (get "--seconds" None) in
  let trace = get "--trace" (Some "0") = "1" in
  (* A wedged server must not hang the run: the default SIGALRM action
     ends this process, and the launcher shuts down when its standard
     input closes. *)
  ignore (Unix.alarm (int_of_float seconds + 150));
  let r = Drive.run w ~seed ~seconds ~setups:(if trace then 1 else e2e_setups) in
  print_e2e_table r;
  let metrics =
    if not trace then end_to_end r
    else begin
      let m = per_layer r ~seed in
      row "per-layer (in-process replay of about %d ops):" (replay_ops w);
      List.iter (fun (n, v, u) -> row "  %-40s %14.4f %s" n v u) m;
      m
    end
  in
  let correct = r.Drive.problems = [] && Drive.failed r = 0 in
  print_result ~correct ~attempted:(Drive.attempted r) ~failed:(Drive.failed r) metrics;
  exit (if correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run args
  | [ "reference" ] -> Reference.serve ()
  | [ "serve"; w; seed ] -> Launcher.serve (workload_arg w) ~seed:(int_of_string seed)
  | [ "setup-only"; w; seed ] -> Launcher.setup_only (workload_arg w) ~seed:(int_of_string seed)
  | _ -> usage ()
