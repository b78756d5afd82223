module Prng = Mood_util.Prng
module Store = Mood_storage.Store
module Disk = Mood_storage.Disk
module Buffer_pool = Mood_storage.Buffer_pool
module Wal = Mood_storage.Wal
module Lock = Mood_storage.Lock_manager

type outcome = {
  o_seed : int;
  o_crash_point : string;
  o_violations : string list;
  o_steps : int;
  o_commits : int;
  o_aborts : int;
  o_deadlocks : int;
  o_checkpoints : int;
  o_torn_pages : int;
  o_lost_frames : int;
  o_lost_log : int;
}

type report = {
  r_cycles : int;
  r_steps : int;
  r_commits : int;
  r_aborts : int;
  r_deadlocks : int;
  r_checkpoints : int;
  r_torn_pages : int;
  r_lost_frames : int;
  r_lost_log : int;
  r_violations : (int * string * string) list;
}

type txn_state = {
  tx_id : int;
  tx_lock : Lock.txn;
  mutable tx_keys : int list;
  mutable tx_ops : int;
}

let key_space = 40
let max_open_txns = 3

let run_cycle ?(skip_undo = false) ~seed () =
  (* Independent streams: workload choices stay identical whether or
     not the fault stream is consulted, so a seed reproduces exactly. *)
  let root = Prng.create ~seed in
  let p_work = Prng.split root in
  let p_fault = Prng.split root in
  let buffer_capacity = 4 + Prng.int p_fault ~bound:12 in
  let store = Store.create ~buffer_capacity () in
  (* Log forces hit the disk: they are charged, they can crash, and a
     crash mid-flush tears the log tail. *)
  Store.attach_wal_accounting store;
  let disk = Store.disk store in
  let wal = Store.wal store in
  let locks = Store.locks store in
  (* Crash either after a random number of page writes (fault
     injection inside Disk) or after a random number of workload steps
     (clean cut between operations). *)
  let write_budget =
    if Prng.bool p_fault then begin
      let n = 1 + Prng.int p_fault ~bound:150 in
      Disk.inject_fault disk ~crash_after_writes:n ~torn_page_prob:0.3
        ~prng:(Prng.split p_fault) ();
      Some n
    end
    else None
  in
  let step_budget =
    match write_budget with
    | Some _ -> 500 (* backstop if the write budget never fires *)
    | None -> 1 + Prng.int p_fault ~bound:200
  in
  let table = Table.create ~store () in
  let model = Model.create () in
  let open_txns : txn_state list ref = ref [] in
  let cp : Table.checkpoint option ref = ref None in
  let committing = ref None in
  let steps = ref 0 in
  let commits = ref 0 in
  let aborts = ref 0 in
  let deadlocks = ref 0 in
  let checkpoints = ref 0 in
  let release st =
    Lock.release_all locks st.tx_lock;
    open_txns := List.filter (fun s -> s != st) !open_txns
  in
  let do_abort st =
    Table.abort table ~txn:st.tx_id;
    (* No disk write between here and the model update: a crash cannot
       separate them. *)
    Model.abort model st.tx_id;
    incr aborts;
    release st
  in
  let do_commit st =
    ignore (Wal.append wal (Wal.Commit st.tx_id));
    committing := Some st.tx_id;
    Wal.flush wal;
    (* The flush can crash after persisting the Commit record: the
       transaction is then committed even though we never reach this
       line. The crash handler resolves the limbo from the durable
       prefix. *)
    committing := None;
    Model.commit model st.tx_id;
    incr commits;
    release st
  in
  let do_checkpoint () =
    let active = List.map (fun st -> st.tx_id) !open_txns in
    let result = Table.checkpoint table ~active in
    cp := Some result;
    incr checkpoints
  in
  let begin_txn () =
    let tx_lock = Lock.begin_txn locks in
    let st = { tx_id = Lock.txn_id tx_lock; tx_lock; tx_keys = []; tx_ops = 0 } in
    ignore (Wal.append wal (Wal.Begin st.tx_id));
    Model.begin_txn model st.tx_id;
    open_txns := st :: !open_txns;
    st
  in
  let random_data () =
    Printf.sprintf "v%d-%s"
      (Prng.int p_work ~bound:1000)
      (String.make (1 + Prng.int p_work ~bound:24) 'x')
  in
  let do_op st =
    let key = Prng.int p_work ~bound:key_space in
    let granted =
      if List.mem key st.tx_keys then `Ok
      else
        match
          Lock.acquire locks st.tx_lock ("key:" ^ string_of_int key)
            Lock.Exclusive
        with
        | Lock.Granted ->
            st.tx_keys <- key :: st.tx_keys;
            `Ok
        | Lock.Would_block -> `Busy
        | Lock.Deadlock -> `Deadlock
    in
    match granted with
    | `Busy -> () (* conflicting key held elsewhere: skip this op *)
    | `Deadlock ->
        incr deadlocks;
        do_abort st
    | `Ok -> (
        st.tx_ops <- st.tx_ops + 1;
        (* Exclusive lock granted, so the live value of this key is
           either committed or our own pending effect — the model's
           live view is exactly what the heap holds. *)
        match Model.find_live model key with
        | None ->
            let data = random_data () in
            Table.insert table ~txn:st.tx_id ~key ~data;
            Model.insert model ~txn:st.tx_id ~key ~data
        | Some _ ->
            if Prng.bool p_work then begin
              let data = random_data () in
              Table.update table ~txn:st.tx_id ~key ~data;
              Model.update model ~txn:st.tx_id ~key ~data
            end
            else begin
              Table.delete table ~txn:st.tx_id ~key;
              Model.delete model ~txn:st.tx_id ~key
            end)
  in
  (try
     while true do
       if !steps >= step_budget then raise Disk.Crash;
       incr steps;
       if Prng.int p_work ~bound:20 = 0 then do_checkpoint ()
       else begin
         if
           !open_txns = []
           || List.length !open_txns < max_open_txns
              && Prng.int p_work ~bound:4 = 0
         then ignore (begin_txn ());
         let st =
           List.nth !open_txns (Prng.int p_work ~bound:(List.length !open_txns))
         in
         if st.tx_ops > 0 && Prng.int p_work ~bound:6 = 0 then
           if Prng.int p_work ~bound:4 = 0 then do_abort st else do_commit st
         else do_op st
       end
     done
   with Disk.Crash -> ());
  let crash_point =
    Printf.sprintf "step=%d/%d writes=%d%s open_txns=[%s]" !steps step_budget
      (Disk.counters disk).Disk.writes
      (match write_budget with
      | Some n -> Printf.sprintf " write_budget=%d" n
      | None -> " (op-budget crash)")
      (String.concat ","
         (List.map (fun st -> string_of_int st.tx_id) !open_txns))
  in
  (* The crash proper: the armed fault is spent, dirty frames and the
     unpersisted log tail are gone. Durable truth is the checkpoint
     image plus the persisted log prefix. *)
  Disk.clear_fault disk;
  let lost_frames = List.length (Buffer_pool.crash (Store.buffer store)) in
  let lost_log = Wal.lose_unpersisted wal in
  (match !committing with
  | Some txn when Wal.commit_persisted wal txn ->
      Model.commit model txn;
      incr commits
  | _ -> ());
  Model.crash model;
  let torn = List.length (Disk.torn_pages disk) in
  let violations =
    try
      let recovered, _analysis = Table.recover ~skip_undo ~wal ~checkpoint:!cp () in
      let got = Table.contents recovered in
      let want = Model.committed_bindings model in
      let mismatch =
        if got = want then []
        else begin
          let render bindings =
            String.concat "; "
              (List.map (fun (k, d) -> Printf.sprintf "%d=%S" k d) bindings)
          in
          [ Printf.sprintf
              "recovered state diverges from oracle: recovered {%s} oracle {%s}"
              (render got) (render want) ]
        end
      in
      mismatch @ Table.check recovered
    with e ->
      [ Printf.sprintf "recovery raised %s" (Printexc.to_string e) ]
  in
  {
    o_seed = seed;
    o_crash_point = crash_point;
    o_violations = violations;
    o_steps = !steps;
    o_commits = !commits;
    o_aborts = !aborts;
    o_deadlocks = !deadlocks;
    o_checkpoints = !checkpoints;
    o_torn_pages = torn;
    o_lost_frames = lost_frames;
    o_lost_log = lost_log;
  }

let run ?(skip_undo = false) ?(quota = 200) ~base_seed () =
  let empty =
    {
      r_cycles = 0;
      r_steps = 0;
      r_commits = 0;
      r_aborts = 0;
      r_deadlocks = 0;
      r_checkpoints = 0;
      r_torn_pages = 0;
      r_lost_frames = 0;
      r_lost_log = 0;
      r_violations = [];
    }
  in
  let add r o =
    {
      r_cycles = r.r_cycles + 1;
      r_steps = r.r_steps + o.o_steps;
      r_commits = r.r_commits + o.o_commits;
      r_aborts = r.r_aborts + o.o_aborts;
      r_deadlocks = r.r_deadlocks + o.o_deadlocks;
      r_checkpoints = r.r_checkpoints + o.o_checkpoints;
      r_torn_pages = r.r_torn_pages + o.o_torn_pages;
      r_lost_frames = r.r_lost_frames + o.o_lost_frames;
      r_lost_log = r.r_lost_log + o.o_lost_log;
      r_violations =
        r.r_violations
        @ List.map (fun v -> (o.o_seed, o.o_crash_point, v)) o.o_violations;
    }
  in
  let rec go r i =
    if i >= quota then r
    else go (add r (run_cycle ~skip_undo ~seed:(base_seed + i) ())) (i + 1)
  in
  go empty 0

(* ------------------------------------------------------------------ *)
(* Replication cycles                                                  *)

type repl_outcome = {
  ro_seed : int;
  ro_violations : string list;
  ro_steps : int;
  ro_commits : int;
  ro_aborts : int;
  ro_deadlocks : int;
  ro_snapshots : int;
  ro_crashes : int;
  ro_redeliveries : int;
  ro_bootstraps : int;
  ro_applied_commits : int;
}

type repl_report = {
  rr_cycles : int;
  rr_steps : int;
  rr_commits : int;
  rr_aborts : int;
  rr_deadlocks : int;
  rr_snapshots : int;
  rr_crashes : int;
  rr_redeliveries : int;
  rr_bootstraps : int;
  rr_applied_commits : int;
  rr_violations : (int * string) list;
}

let take_first n xs =
  let rec go acc n = function
    | x :: rest when n > 0 -> go (x :: acc) (n - 1) rest
    | _ -> List.rev acc
  in
  go [] n xs

let run_repl_cycle ?(skip_scrub = false) ~seed () =
  let root = Prng.create ~seed in
  let p_work = Prng.split root in
  let p_repl = Prng.split root in
  let store = Store.create ~buffer_capacity:16 () in
  let wal = Store.wal store in
  let locks = Store.locks store in
  let table = Table.create ~store () in
  let model = Model.create () in
  let open_txns : txn_state list ref = ref [] in
  let replica = ref (Replica.create ()) in
  let need_bootstrap = ref true in
  let steps = ref 0 in
  let commits = ref 0 in
  let aborts = ref 0 in
  let deadlocks = ref 0 in
  let snapshots = ref 0 in
  let crashes = ref 0 in
  let redeliveries = ref 0 in
  let release st =
    Lock.release_all locks st.tx_lock;
    open_txns := List.filter (fun s -> s != st) !open_txns
  in
  let do_abort st =
    Table.abort table ~txn:st.tx_id;
    Model.abort model st.tx_id;
    incr aborts;
    release st
  in
  (* The primary never crashes in this cycle (run_cycle owns that
     failure mode) — a commit is durable the moment it flushes. *)
  let do_commit st =
    ignore (Wal.append wal (Wal.Commit st.tx_id));
    Wal.flush wal;
    Model.commit model st.tx_id;
    incr commits;
    release st
  in
  let begin_txn () =
    let tx_lock = Lock.begin_txn locks in
    let st = { tx_id = Lock.txn_id tx_lock; tx_lock; tx_keys = []; tx_ops = 0 } in
    ignore (Wal.append wal (Wal.Begin st.tx_id));
    Model.begin_txn model st.tx_id;
    open_txns := st :: !open_txns;
    st
  in
  let random_data () =
    Printf.sprintf "v%d-%s"
      (Prng.int p_work ~bound:1000)
      (String.make (1 + Prng.int p_work ~bound:24) 'x')
  in
  let do_op st =
    let key = Prng.int p_work ~bound:key_space in
    let granted =
      if List.mem key st.tx_keys then `Ok
      else
        match
          Lock.acquire locks st.tx_lock ("key:" ^ string_of_int key)
            Lock.Exclusive
        with
        | Lock.Granted ->
            st.tx_keys <- key :: st.tx_keys;
            `Ok
        | Lock.Would_block -> `Busy
        | Lock.Deadlock -> `Deadlock
    in
    match granted with
    | `Busy -> ()
    | `Deadlock ->
        incr deadlocks;
        do_abort st
    | `Ok -> (
        st.tx_ops <- st.tx_ops + 1;
        match Model.find_live model key with
        | None ->
            let data = random_data () in
            Table.insert table ~txn:st.tx_id ~key ~data;
            Model.insert model ~txn:st.tx_id ~key ~data
        | Some _ ->
            if Prng.bool p_work then begin
              let data = random_data () in
              Table.update table ~txn:st.tx_id ~key ~data;
              Model.update model ~txn:st.tx_id ~key ~data
            end
            else begin
              Table.delete table ~txn:st.tx_id ~key;
              Model.delete model ~txn:st.tx_id ~key
            end)
  in
  (* Sharp snapshot for bootstrap: the base image, the durable horizon
     it reflects, and every in-flight transaction's records so the
     replica can scrub their image-resident effects and re-buffer
     them. *)
  let take_snapshot () =
    let active = List.map (fun st -> st.tx_id) !open_txns in
    let cp = Table.checkpoint table ~active in
    incr snapshots;
    { Replica.s_lsn = cp.Table.cp_lsn;
      s_image = cp.Table.cp_image;
      s_active =
        List.map
          (fun st -> (st.tx_id, List.rev (Wal.undo_records wal st.tx_id)))
          !open_txns
    }
  in
  let replica_pull () =
    if !need_bootstrap then begin
      Replica.install_snapshot ~skip_scrub !replica (take_snapshot ());
      need_bootstrap := false
    end
    else begin
      let available = Wal.persisted_after wal (Replica.applied_lsn !replica) in
      let batch = take_first (1 + Prng.int p_repl ~bound:12) available in
      if batch <> [] then
        if Prng.int p_repl ~bound:8 = 0 then begin
          (* Replica crash mid-batch: a prefix lands, then the whole
             in-memory state (image, cursor, pending buffers) is gone.
             Recovery is a fresh bootstrap. *)
          Replica.apply !replica
            (take_first (Prng.int p_repl ~bound:(List.length batch)) batch);
          replica := Replica.create ();
          need_bootstrap := true;
          incr crashes
        end
        else begin
          let before = Replica.applied_lsn !replica in
          Replica.apply !replica batch;
          if Prng.int p_repl ~bound:6 = 0 then begin
            (* Torn-connection retry: the same batch arrives twice.
               The cursor skip plus upsert redo must make the second
               delivery a no-op. *)
            Replica.set_cursor !replica before;
            Replica.apply !replica batch;
            incr redeliveries
          end
        end
    end
  in
  let step_budget = 60 + Prng.int p_work ~bound:140 in
  while !steps < step_budget do
    incr steps;
    if
      !open_txns = []
      || List.length !open_txns < max_open_txns && Prng.int p_work ~bound:4 = 0
    then ignore (begin_txn ());
    let st =
      List.nth !open_txns (Prng.int p_work ~bound:(List.length !open_txns))
    in
    if st.tx_ops > 0 && Prng.int p_work ~bound:6 = 0 then
      if Prng.int p_work ~bound:4 = 0 then do_abort st else do_commit st
    else do_op st;
    if Prng.int p_repl ~bound:3 = 0 then replica_pull ()
  done;
  (* Catch-up, then promotion: bootstrap if the last crash left the
     replica empty, drain the durable log completely, drop the loser
     buffers. The image must now be exactly the committed state. *)
  if !need_bootstrap then replica_pull ();
  Replica.apply !replica (Wal.persisted_after wal (Replica.applied_lsn !replica));
  Replica.promote !replica;
  let violations =
    let got = Replica.contents !replica in
    let want = Model.committed_bindings model in
    let mismatch =
      if got = want then []
      else begin
        let render bindings =
          String.concat "; "
            (List.map (fun (k, d) -> Printf.sprintf "%d=%S" k d) bindings)
        in
        [ Printf.sprintf
            "promoted replica diverges from oracle: replica {%s} oracle {%s}"
            (render got) (render want) ]
      end
    in
    mismatch @ Replica.check !replica
  in
  {
    ro_seed = seed;
    ro_violations = violations;
    ro_steps = !steps;
    ro_commits = !commits;
    ro_aborts = !aborts;
    ro_deadlocks = !deadlocks;
    ro_snapshots = !snapshots;
    ro_crashes = !crashes;
    ro_redeliveries = !redeliveries;
    ro_bootstraps = Replica.bootstraps !replica + !crashes;
    ro_applied_commits = Replica.commits_applied !replica;
  }

let run_repl ?(skip_scrub = false) ?(quota = 200) ~base_seed () =
  let empty =
    {
      rr_cycles = 0;
      rr_steps = 0;
      rr_commits = 0;
      rr_aborts = 0;
      rr_deadlocks = 0;
      rr_snapshots = 0;
      rr_crashes = 0;
      rr_redeliveries = 0;
      rr_bootstraps = 0;
      rr_applied_commits = 0;
      rr_violations = [];
    }
  in
  let add r o =
    {
      rr_cycles = r.rr_cycles + 1;
      rr_steps = r.rr_steps + o.ro_steps;
      rr_commits = r.rr_commits + o.ro_commits;
      rr_aborts = r.rr_aborts + o.ro_aborts;
      rr_deadlocks = r.rr_deadlocks + o.ro_deadlocks;
      rr_snapshots = r.rr_snapshots + o.ro_snapshots;
      rr_crashes = r.rr_crashes + o.ro_crashes;
      rr_redeliveries = r.rr_redeliveries + o.ro_redeliveries;
      rr_bootstraps = r.rr_bootstraps + o.ro_bootstraps;
      rr_applied_commits = r.rr_applied_commits + o.ro_applied_commits;
      rr_violations =
        r.rr_violations @ List.map (fun v -> (o.ro_seed, v)) o.ro_violations;
    }
  in
  let rec go r i =
    if i >= quota then r
    else go (add r (run_repl_cycle ~skip_scrub ~seed:(base_seed + i) ())) (i + 1)
  in
  go empty 0

let pp_repl_report ppf r =
  Format.fprintf ppf
    "%d cycles: %d steps, %d commits (%d applied on the replica), %d aborts,@ \
     %d deadlock victims, %d snapshots, %d replica crashes, %d redeliveries,@ \
     %d bootstraps, %d violations"
    r.rr_cycles r.rr_steps r.rr_commits r.rr_applied_commits r.rr_aborts
    r.rr_deadlocks r.rr_snapshots r.rr_crashes r.rr_redeliveries r.rr_bootstraps
    (List.length r.rr_violations)

let pp_report ppf r =
  Format.fprintf ppf
    "%d cycles: %d steps, %d commits, %d aborts, %d deadlock victims,@ %d \
     checkpoints, %d torn pages, %d lost frames, %d lost log records,@ %d \
     violations"
    r.r_cycles r.r_steps r.r_commits r.r_aborts r.r_deadlocks r.r_checkpoints
    r.r_torn_pages r.r_lost_frames r.r_lost_log
    (List.length r.r_violations)

(* ------------------------------------------------------------------ *)
(* MVCC snapshot cycles                                                *)

module Version_store = Mood_storage.Version_store
module Pax_store = Mood_column.Pax_store
module Batch = Mood_column.Batch

type mvcc_outcome = {
  mo_seed : int;
  mo_crash_point : string;
  mo_violations : string list;
  mo_steps : int;
  mo_commits : int;
  mo_aborts : int;
  mo_deadlocks : int;
  mo_snapshots : int;
  mo_snapshot_checks : int;
  mo_gc_runs : int;
  mo_checkpoints : int;
}

type mvcc_report = {
  mr_cycles : int;
  mr_steps : int;
  mr_commits : int;
  mr_aborts : int;
  mr_deadlocks : int;
  mr_snapshots : int;
  mr_snapshot_checks : int;
  mr_gc_runs : int;
  mr_checkpoints : int;
  mr_violations : (int * string) list;
}

let max_open_snapshots = 4

let render_bindings bindings =
  String.concat "; "
    (List.map (fun (k, d) -> Printf.sprintf "%d=%S" k d) bindings)

let run_mvcc_cycle ~seed () =
  let root = Prng.create ~seed in
  let p_work = Prng.split root in
  let p_plan = Prng.split root in
  let store = Store.create ~buffer_capacity:(4 + Prng.int p_plan ~bound:12) () in
  (* No disk faults and no WAL write accounting here: a flush always
     survives, so every commit the oracle records is durable and the
     crash is a clean cut at the step budget. The fault-injection
     cycles ([run_cycle]) already cover torn logs; these cycles pin the
     MVCC read protocol — every open snapshot keeps reading its capture
     state while history commits, aborts, checkpoints and GC runs
     around it, and version chains rebuild consistently after a
     restart. *)
  let wal = Store.wal store in
  let locks = Store.locks store in
  let vs = Store.versions store in
  Version_store.set_tracking vs true;
  let table = Table.create ~store () in
  (* A PAX mirror over the same extent: every snapshot read goes
     through both the row scan and the columnar batches. *)
  let pax =
    Pax_store.create ~store ~extent:(Table.extent table)
      ~attrs:[ ("data", Mood_model.Mtype.Basic (Mood_model.Mtype.String 32)) ]
  in
  let model = Model.create () in
  let open_txns : txn_state list ref = ref [] in
  let open_views : Version_store.view list ref = ref [] in
  let cp : Table.checkpoint option ref = ref None in
  let step_budget = 40 + Prng.int p_plan ~bound:200 in
  let steps = ref 0 in
  let commits = ref 0 in
  let aborts = ref 0 in
  let deadlocks = ref 0 in
  let snapshots = ref 0 in
  let snapshot_checks = ref 0 in
  let gc_runs = ref 0 in
  let checkpoints = ref 0 in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  let pax_contents () =
    let out = ref [] in
    Pax_store.iter_batches pax ~f:(fun b ->
        let _, data = b.Batch.columns.(0) in
        for i = 0 to b.Batch.n - 1 do
          let cell =
            match Batch.cell data i with
            | Mood_model.Value.Str s -> s
            | v -> Mood_model.Value.to_string v
          in
          out := (b.Batch.slots.(i), cell) :: !out
        done);
    List.sort compare !out
  in
  let check_view view =
    incr snapshot_checks;
    let id = Version_store.view_id view in
    let rows, columns =
      Version_store.with_view vs view (fun () ->
          (Table.contents table, pax_contents ()))
    in
    match Model.snapshot_expected model id with
    | None -> violation "snapshot %d: oracle lost its expectation" id
    | Some want ->
        List.iter
          (fun (path, got) ->
            if got <> want then
              violation "snapshot %d (stamp %d) diverged on the %s path: read {%s} want {%s}"
                id (Version_store.view_stamp view) path
                (render_bindings got) (render_bindings want))
          [ ("row", rows); ("PAX", columns) ]
  in
  let open_view () =
    if List.length !open_views < max_open_snapshots then begin
      let view = Version_store.open_snapshot vs () in
      Model.register_snapshot model (Version_store.view_id view);
      open_views := view :: !open_views;
      incr snapshots;
      (* A snapshot must agree with the oracle from its first read. *)
      check_view view
    end
  in
  let close_view view =
    check_view view;
    Version_store.close_snapshot vs view;
    Version_store.drain_removals vs;
    Model.forget_snapshot model (Version_store.view_id view);
    open_views := List.filter (fun v -> v != view) !open_views
  in
  let release st =
    Lock.release_all locks st.tx_lock;
    open_txns := List.filter (fun s -> s != st) !open_txns
  in
  let do_abort st =
    (* Compensation restores the heap; the version store pops the
       chains itself — tracking the compensating writes would instead
       push bogus new versions. *)
    Version_store.without_tracking vs (fun () -> Table.abort table ~txn:st.tx_id);
    Version_store.abort vs ~txn:st.tx_id;
    Model.abort model st.tx_id;
    incr aborts;
    release st
  in
  let do_commit st =
    let lsn = Wal.append wal (Wal.Commit st.tx_id) in
    Wal.flush wal;
    Version_store.commit vs ~txn:st.tx_id ~lsn;
    Model.commit model st.tx_id;
    incr commits;
    release st
  in
  let do_checkpoint () =
    let active = List.map (fun st -> st.tx_id) !open_txns in
    cp := Some (Table.checkpoint table ~active);
    incr checkpoints;
    (* GC rides along with the checkpoint, exactly like [Db.checkpoint];
       chains an open snapshot still needs must survive it. *)
    Version_store.gc vs;
    incr gc_runs;
    List.iter check_view !open_views
  in
  let begin_txn () =
    let tx_lock = Lock.begin_txn locks in
    let st = { tx_id = Lock.txn_id tx_lock; tx_lock; tx_keys = []; tx_ops = 0 } in
    ignore (Wal.append wal (Wal.Begin st.tx_id));
    Model.begin_txn model st.tx_id;
    open_txns := st :: !open_txns;
    st
  in
  let random_data () =
    Printf.sprintf "v%d-%s"
      (Prng.int p_work ~bound:1000)
      (String.make (1 + Prng.int p_work ~bound:24) 'x')
  in
  let do_op st =
    let key = Prng.int p_work ~bound:key_space in
    let granted =
      if List.mem key st.tx_keys then `Ok
      else
        match
          Lock.acquire locks st.tx_lock ("key:" ^ string_of_int key)
            Lock.Exclusive
        with
        | Lock.Granted ->
            st.tx_keys <- key :: st.tx_keys;
            `Ok
        | Lock.Would_block -> `Busy
        | Lock.Deadlock -> `Deadlock
    in
    match granted with
    | `Busy -> ()
    | `Deadlock ->
        incr deadlocks;
        do_abort st
    | `Ok -> (
        st.tx_ops <- st.tx_ops + 1;
        match Model.find_live model key with
        | None ->
            let data = random_data () in
            Table.insert table ~txn:st.tx_id ~key ~data;
            Model.insert model ~txn:st.tx_id ~key ~data
        | Some _ ->
            if Prng.bool p_work then begin
              let data = random_data () in
              Table.update table ~txn:st.tx_id ~key ~data;
              Model.update model ~txn:st.tx_id ~key ~data
            end
            else begin
              Table.delete table ~txn:st.tx_id ~key;
              Model.delete model ~txn:st.tx_id ~key
            end)
  in
  (try
     while true do
       if !steps >= step_budget then raise Disk.Crash;
       incr steps;
       match Prng.int p_work ~bound:24 with
       | 0 -> do_checkpoint ()
       | 1 | 2 -> open_view ()
       | 3 when !open_views <> [] ->
           close_view
             (List.nth !open_views
                (Prng.int p_work ~bound:(List.length !open_views)))
       | 4 ->
           (* Repeatable read mid-history: every live snapshot still
              answers with its capture state. *)
           List.iter check_view !open_views
       | 5 ->
           Version_store.gc vs;
           incr gc_runs;
           List.iter check_view !open_views
       | _ ->
           if
             !open_txns = []
             || List.length !open_txns < max_open_txns
                && Prng.int p_work ~bound:4 = 0
           then ignore (begin_txn ());
           let st =
             List.nth !open_txns
               (Prng.int p_work ~bound:(List.length !open_txns))
           in
           if st.tx_ops > 0 && Prng.int p_work ~bound:6 = 0 then
             if Prng.int p_work ~bound:4 = 0 then do_abort st else do_commit st
           else do_op st
     done
   with Disk.Crash -> ());
  let crash_point =
    Printf.sprintf "step=%d/%d open_txns=[%s] open_snapshots=%d" !steps
      step_budget
      (String.concat ","
         (List.map (fun st -> string_of_int st.tx_id) !open_txns))
      (List.length !open_views)
  in
  (* The crash: dirty frames and the unpersisted log tail are gone, and
     with them every version chain and open snapshot (both live only in
     memory). Every commit above flushed before the oracle recorded it,
     so there is no commit limbo to resolve. *)
  ignore (Buffer_pool.crash (Store.buffer store));
  ignore (Wal.lose_unpersisted wal);
  Model.crash model;
  let post =
    try
      let recovered, _analysis = Table.recover ~wal ~checkpoint:!cp () in
      let want = Model.committed_bindings model in
      let got = Table.contents recovered in
      let mismatch =
        if got = want then []
        else
          [ Printf.sprintf
              "recovered state diverges from oracle: recovered {%s} oracle {%s}"
              (render_bindings got) (render_bindings want) ]
      in
      (* Version chains must rebuild consistently: a snapshot opened on
         the recovered store reads exactly the committed state, and
         keeps reading it across a post-recovery write. *)
      let rstore = Table.store recovered in
      let rvs = Store.versions rstore in
      Version_store.set_tracking rvs true;
      let view = Version_store.open_snapshot rvs () in
      let first =
        Version_store.with_view rvs view (fun () -> Table.contents recovered)
      in
      let txn = 1_000_000 + seed in
      ignore (Wal.append wal (Wal.Begin txn));
      (match Table.get recovered 0 with
      | Some _ -> Table.update recovered ~txn ~key:0 ~data:"post-recovery"
      | None -> Table.insert recovered ~txn ~key:0 ~data:"post-recovery");
      let lsn = Wal.append wal (Wal.Commit txn) in
      Wal.flush wal;
      Version_store.commit rvs ~txn ~lsn;
      let second =
        Version_store.with_view rvs view (fun () -> Table.contents recovered)
      in
      Version_store.close_snapshot rvs view;
      let chain =
        (if first = want then []
         else
           [ Printf.sprintf
               "post-recovery snapshot diverges: read {%s} committed {%s}"
               (render_bindings first) (render_bindings want) ])
        @
        if second = first then []
        else
          [ Printf.sprintf
              "post-recovery snapshot not repeatable across a write: first \
               {%s} then {%s}"
              (render_bindings first) (render_bindings second) ]
      in
      mismatch @ chain @ Table.check recovered
    with e -> [ Printf.sprintf "recovery raised %s" (Printexc.to_string e) ]
  in
  {
    mo_seed = seed;
    mo_crash_point = crash_point;
    mo_violations = List.rev !violations @ post;
    mo_steps = !steps;
    mo_commits = !commits;
    mo_aborts = !aborts;
    mo_deadlocks = !deadlocks;
    mo_snapshots = !snapshots;
    mo_snapshot_checks = !snapshot_checks;
    mo_gc_runs = !gc_runs;
    mo_checkpoints = !checkpoints;
  }

let run_mvcc ?(quota = 200) ~base_seed () =
  let empty =
    {
      mr_cycles = 0;
      mr_steps = 0;
      mr_commits = 0;
      mr_aborts = 0;
      mr_deadlocks = 0;
      mr_snapshots = 0;
      mr_snapshot_checks = 0;
      mr_gc_runs = 0;
      mr_checkpoints = 0;
      mr_violations = [];
    }
  in
  let add r o =
    {
      mr_cycles = r.mr_cycles + 1;
      mr_steps = r.mr_steps + o.mo_steps;
      mr_commits = r.mr_commits + o.mo_commits;
      mr_aborts = r.mr_aborts + o.mo_aborts;
      mr_deadlocks = r.mr_deadlocks + o.mo_deadlocks;
      mr_snapshots = r.mr_snapshots + o.mo_snapshots;
      mr_snapshot_checks = r.mr_snapshot_checks + o.mo_snapshot_checks;
      mr_gc_runs = r.mr_gc_runs + o.mo_gc_runs;
      mr_checkpoints = r.mr_checkpoints + o.mo_checkpoints;
      mr_violations =
        r.mr_violations
        @ List.map
            (fun v ->
              (o.mo_seed, Printf.sprintf "[%s] %s" o.mo_crash_point v))
            o.mo_violations;
    }
  in
  let rec go r i =
    if i >= quota then r
    else go (add r (run_mvcc_cycle ~seed:(base_seed + i) ())) (i + 1)
  in
  go empty 0

let pp_mvcc_report ppf r =
  Format.fprintf ppf
    "%d cycles: %d steps, %d commits, %d aborts, %d deadlock victims,@ %d \
     snapshots (%d reads checked), %d GC runs, %d checkpoints,@ %d violations"
    r.mr_cycles r.mr_steps r.mr_commits r.mr_aborts r.mr_deadlocks
    r.mr_snapshots r.mr_snapshot_checks r.mr_gc_runs r.mr_checkpoints
    (List.length r.mr_violations)
