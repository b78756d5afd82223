(* The end-to-end run: one client process drives the launcher's server
   over the wire protocol, closed loop with no think time, one thread
   per connection (at most two). Every logical operation is timed from
   its first send to its final reply, BUSY back-off included, and
   checked for correctness as it completes. A third process, the
   reference, times a fixed computation between operations, so every
   duration can also be given as on the reference host. *)

module Wire = Mood_server.Wire
module Client = Mood_server.Client

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

type child = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
  mutable reaped : bool;
}

let spawn args =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  { pid;
    to_child = Unix.out_channel_of_descr to_child;
    from_child = Unix.in_channel_of_descr from_child;
    reaped = false
  }

(* Reads the child's tab-separated records until [stop] matches one
   (returned) or the child closes its output ([None]). *)
let rec read_until child ~on stop =
  match In_channel.input_line child.from_child with
  | None -> None
  | Some line -> (
      match String.split_on_char '\t' line with
      | tag :: fields when tag = stop -> Some fields
      | tag :: fields ->
          on tag fields;
          read_until child ~on stop
      | [] -> read_until child ~on stop)

let reap child =
  close_out_noerr child.to_child;
  let rec wait () =
    match Unix.waitpid [] child.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  child.reaped <- true;
  close_in_noerr child.from_child;
  status

(* Stops a child that is still running (an aborted run). *)
let kill child =
  if not child.reaped then begin
    (try Unix.kill child.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap child)
  end

let setup_sample workload ~seed =
  let child = spawn [ "setup-only"; Spec.name workload; string_of_int seed ] in
  let fields = read_until child ~on:(fun _ _ -> ()) "SETUP" in
  (match reap child with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "setup-only launcher failed");
  match fields with
  | Some [ s; rss ] -> (float_of_string s, float_of_string rss /. 1024.)
  | _ -> failwith "setup-only launcher printed no SETUP record"

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)

(* Session 0 has the reference process time its computation at most
   every [calibrate_every] seconds, between operations. A duration
   measured at time t is scaled by the median of the reference times
   taken within [window] seconds of t, so a swing of host speed within
   a run is followed, not averaged. *)
let calibrate_every = 0.2

let window = 1.0

type speed = { stamps : Sample.t; ref_s : Sample.t }

let reference_time child =
  output_string child.to_child "go\n";
  flush child.to_child;
  match In_channel.input_line child.from_child with
  | Some d -> float_of_string d
  | None -> failwith "reference process exited"

(* The factor that scales a duration measured at time [t] to the host on
   which the reference takes [Reference.nominal_s]. *)
let scale sp t =
  let near = Sample.create () in
  for i = 0 to Sample.count sp.stamps - 1 do
    if Float.abs (sp.stamps.Sample.data.(i) -. t) <= window then
      Sample.add near sp.ref_s.Sample.data.(i)
  done;
  let ref_s = Sample.percentile (if Sample.count near > 0 then near else sp.ref_s) 50. in
  Reference.nominal_s /. ref_s

(* The reference must have the CPU to itself, so a timing waits until
   no session is inside an operation and holds the others off until it
   is done. *)
type gate = {
  m : Mutex.t;
  c : Condition.t;
  mutable active : int;      (* sessions inside an operation *)
  mutable closed : bool;     (* a timing is waiting or running *)
  mutable paused : float;    (* wall seconds with the gate closed and idle *)
  mutable scaled_paused : float;  (* the same, scaled *)
}

let gate () =
  { m = Mutex.create (); c = Condition.create (); active = 0; closed = false;
    paused = 0.; scaled_paused = 0. }

let enter g =
  Mutex.lock g.m;
  while g.closed do
    Condition.wait g.c g.m
  done;
  g.active <- g.active + 1;
  Mutex.unlock g.m

let leave g =
  Mutex.lock g.m;
  g.active <- g.active - 1;
  if g.active = 0 then Condition.broadcast g.c;
  Mutex.unlock g.m

(* Runs [f] (a timing, returning its duration) with every session held
   outside its operations; the time the gate stood idle is counted in
   [paused], scaled by that timing itself. *)
let exclusive g f =
  Mutex.lock g.m;
  g.closed <- true;
  while g.active > 0 do
    Condition.wait g.c g.m
  done;
  Mutex.unlock g.m;
  let t0 = Unix.gettimeofday () in
  let d = f () in
  let idle = Unix.gettimeofday () -. t0 in
  Mutex.lock g.m;
  g.closed <- false;
  g.paused <- g.paused +. idle;
  g.scaled_paused <- g.scaled_paused +. (idle *. Reference.nominal_s /. d);
  Condition.broadcast g.c;
  Mutex.unlock g.m;
  d

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

let n_kinds = 6

let kind_index = function
  | Spec.Read -> 0
  | Spec.Write -> 1
  | Spec.Txn -> 2
  | Spec.Scan_row -> 3
  | Spec.Scan_pax -> 4
  | Spec.Path -> 5

let all_kinds = [ Spec.Read; Spec.Write; Spec.Txn; Spec.Scan_row; Spec.Scan_pax; Spec.Path ]

type session = {
  lat : Sample.t array;          (* seconds per logical op, by kind *)
  at : Sample.t array;           (* when each of those ops was half done *)
  mutable ops : int;             (* logical ops attempted *)
  mutable failed : int;          (* logical ops that failed for good *)
  mutable requests : int;        (* non-BUSY replies received *)
  mutable acked_updates : int;   (* weight + 1 updates acknowledged durable *)
  mutable busy : int;
  mutable aborts : int;
  mutable problems : string list;
  mutable last_end : float;
}

let fresh_session () =
  { lat = Array.init n_kinds (fun _ -> Sample.create ());
    at = Array.init n_kinds (fun _ -> Sample.create ());
    ops = 0;
    failed = 0;
    requests = 0;
    acked_updates = 0;
    busy = 0;
    aborts = 0;
    problems = [];
    last_end = 0.
  }

let problem s fmt =
  Printf.ksprintf
    (fun m -> if List.length s.problems < 8 then s.problems <- m :: s.problems)
    fmt

let send s c req =
  let rec go tries =
    match Client.request c req with
    | Wire.Busy _ as r when tries >= 200 -> r
    | Wire.Busy _ ->
        s.busy <- s.busy + 1;
        Thread.delay 0.005;
        go (tries + 1)
    | r ->
        s.requests <- s.requests + 1;
        r
  in
  go 0

let is_select sql = String.length sql >= 6 && String.sub sql 0 6 = "SELECT"

let request_of sql = if is_select sql then Wire.Query sql else Wire.Exec sql

(* Checks one statement reply; [Error] explains a wrong answer. *)
let check_reply ~workload ~expected kind sql resp =
  match resp with
  | Wire.Rows rows when is_select sql -> (
      match kind with
      | Spec.Read | Spec.Write | Spec.Txn ->
          if List.length rows = 1 then Ok ()
          else Error (Printf.sprintf "%s returned %d rows" sql (List.length rows))
      | Spec.Scan_row | Spec.Scan_pax | Spec.Path -> (
          if not (Spec.checkable workload kind) then Ok ()
          else
            match Hashtbl.find_opt expected sql with
            | Some d when d = Setup.digest rows -> Ok ()
            | Some _ -> Error (sql ^ " differs from its set-up value")
            | None -> Error (sql ^ " has no set-up value")))
  | Wire.Ok_result m when String.starts_with ~prefix:"UPDATE" sql ->
      if m = "updated 1" then Ok () else Error (Printf.sprintf "%s: %s" sql m)
  | Wire.Ok_result m when String.starts_with ~prefix:"new" sql ->
      if String.starts_with ~prefix:"oid " m then Ok () else Error (sql ^ ": " ^ m)
  | Wire.Err m -> Error (Printf.sprintf "%s: ERR %s" sql m)
  | Wire.Aborted m -> Error (Printf.sprintf "%s: ABORTED %s" sql m)
  | Wire.Busy m -> Error (Printf.sprintf "%s: BUSY after retries %s" sql m)
  | _ -> Error (sql ^ ": unexpected reply")

(* One logical operation; [true] when it completed correctly. *)
let run_op s c ~workload ~expected (op : Spec.op) =
  let check sql resp =
    match check_reply ~workload ~expected op.Spec.kind sql resp with
    | Ok () -> true
    | Error m ->
        problem s "%s" m;
        false
  in
  if not op.Spec.txn then begin
    let sql = List.hd op.Spec.stmts in
    let ok = check sql (send s c (request_of sql)) in
    if ok then s.acked_updates <- s.acked_updates + Spec.updates op;
    ok
  end
  else
    let rec attempt tries =
      match send s c Wire.Begin with
      | Wire.Ok_result _ -> (
          let rec body = function
            | [] -> `Done
            | sql :: rest -> (
                match send s c (request_of sql) with
                | Wire.Aborted _ -> `Aborted
                | resp -> if check sql resp then body rest else `Failed)
          in
          match body op.Spec.stmts with
          | `Aborted -> retry tries
          | `Failed ->
              ignore (send s c Wire.Abort);
              false
          | `Done -> (
              match send s c Wire.Commit with
              | Wire.Ok_result _ ->
                  s.acked_updates <- s.acked_updates + Spec.updates op;
                  true
              | Wire.Aborted _ -> retry tries
              | _ ->
                  problem s "COMMIT failed";
                  false))
      | _ ->
          problem s "BEGIN failed";
          false
    and retry tries =
      s.aborts <- s.aborts + 1;
      if tries < 5 then attempt (tries + 1)
      else begin
        problem s "transaction aborted 6 times";
        false
      end
    in
    attempt 0

(* [between ()] runs before each operation; session 0 calibrates there. *)
let session_loop s c ~workload ~expected ~next ~deadline ~between ~gate:g =
  while Unix.gettimeofday () < deadline do
    between ();
    let op = next () in
    enter g;
    let t0 = Unix.gettimeofday () in
    let ok = Fun.protect ~finally:(fun () -> leave g) (fun () -> run_op s c ~workload ~expected op) in
    let t1 = Unix.gettimeofday () in
    s.ops <- s.ops + 1;
    if ok then begin
      Sample.add s.lat.(kind_index op.Spec.kind) (t1 -. t0);
      Sample.add s.at.(kind_index op.Spec.kind) ((t0 +. t1) /. 2.)
    end
    else s.failed <- s.failed + 1;
    s.last_end <- t1
  done

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

type result = {
  workload : Spec.workload;
  setup_s : float list;              (* scaled to the reference host *)
  setup_wall_s : float list;
  setup_rss_mb : float list;
  peak_rss_mb : float;
  elapsed : float;
  scaled_elapsed : float;            (* [elapsed], scaled to the reference host *)
  sessions : session array;
  by_kind : Sample.t array;          (* merged over sessions *)
  scaled_by_kind : Sample.t array;   (* the same, scaled to the reference host *)
  speed : speed;
  stats_delta : (string * int) list;
  stats_end : (string * int) list;
  problems : string list;            (* correctness violations *)
}

let stat rows k = Option.value ~default:0 (List.assoc_opt k rows)

(* [setups] set-up samples in all: the serving launcher's own, and the
   rest from short-lived launchers split before and after the measured
   phase, so the median does not rest on one stretch of machine time. *)
let run workload ~seed ~seconds ~setups =
  let reference = spawn [ "reference" ] in
  Fun.protect ~finally:(fun () -> kill reference) @@ fun () ->
  (* A set-up is scaled by the median of three reference timings taken
     just before it and three just after. *)
  let timings () = List.init 3 (fun _ -> reference_time reference) in
  let scaled before (wall, rss) =
    (wall, wall *. Reference.nominal_s /. Sample.median_of (before @ timings ()), rss)
  in
  let extra = max 0 (setups - 1) in
  let sample n =
    List.init n (fun _ ->
        let before = timings () in
        scaled before (setup_sample workload ~seed))
  in
  let before = sample (extra / 2) in
  let serving_before = timings () in
  let child = spawn [ "serve"; Spec.name workload; string_of_int seed ] in
  let measure () =
    let expected = Hashtbl.create 64 in
    let sum0 = ref None and setup = ref None in
    let on tag fields =
      match (tag, fields) with
      | "SETUP", [ s; rss ] -> setup := Some (float_of_string s, float_of_string rss /. 1024.)
      | "SUM0", [ n ] -> sum0 := Some (int_of_string n)
      | "EXPECT", [ d; sql ] -> Hashtbl.replace expected sql d
      | _ -> ()
    in
    let port =
      match read_until child ~on "READY" with
      | Some [ p ] -> int_of_string p
      | _ -> failwith "launcher exited before serving"
    in
    let samples = scaled serving_before (Option.get !setup) :: before in
    let n = Spec.sessions workload in
    let clients = Array.init n (fun _ -> Client.connect ~port ()) in
    let sessions = Array.init n (fun _ -> fresh_session ()) in
    let stats0 = Client.stats clients.(0) in
    let speed = { stamps = Sample.create (); ref_s = Sample.create () } in
    let last_calibration = ref neg_infinity in
    let gate = gate () in
    let calibrate () =
      let t0 = Unix.gettimeofday () in
      if t0 -. !last_calibration >= calibrate_every then begin
        let d = exclusive gate (fun () -> reference_time reference) in
        Sample.add speed.stamps (t0 +. (d /. 2.));
        Sample.add speed.ref_s d;
        last_calibration := t0
      end
    in
    let start = Unix.gettimeofday () in
    let deadline = start +. seconds in
    let threads =
      Array.mapi
        (fun i c ->
          let next = Spec.stream workload ~seed ~session:i in
          Thread.create
            (fun () ->
              let s = sessions.(i) in
              let between = if i = 0 then calibrate else ignore in
              try session_loop s c ~workload ~expected ~next ~deadline ~between ~gate
              with e ->
                s.ops <- s.ops + 1;
                s.failed <- s.failed + 1;
                problem s "%s" (Printexc.to_string e))
            ())
        clients
    in
    Array.iter Thread.join threads;
    (* The measured phase, less the time the sessions stood still for
       the reference. *)
    let phase = Array.fold_left (fun m s -> Float.max m s.last_end) start sessions -. start in
    let elapsed = phase -. gate.paused in
    let s0 = sessions.(0) in
    let problems = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
    (* The weight sum moved by exactly the acknowledged updates. *)
    let acked = Array.fold_left (fun a s -> a + s.acked_updates) 0 sessions in
    (match send s0 clients.(0) (Wire.Query Spec.sum_sql) with
    | Wire.Rows [ v ] when Spec.int_of_row v <> None ->
        let sum1 = Option.get (Spec.int_of_row v) in
        let sum0 = Option.get !sum0 in
        if sum1 - sum0 <> acked then
          fail "SUM(v.weight) moved by %d, but %d updates were acknowledged"
            (sum1 - sum0) acked
    | _ -> fail "final SUM(v.weight) query failed");
    let stats1 = Client.stats clients.(0) in
    (* The opening STATS is counted by the time the closing one
       snapshots; the closing one is not yet. *)
    let requests = Array.fold_left (fun a s -> a + s.requests) 0 sessions in
    let seen = stat stats1 "server.statements" - stat stats0 "server.statements" in
    if seen <> requests + 1 then
      fail "server executed %d statements, the client saw %d replies" seen (requests + 1);
    Array.iter Client.quit clients;
    let peak = ref 0. in
    let on tag fields =
      match (tag, fields) with
      | "PEAK", [ kb ] -> peak := float_of_string kb /. 1024.
      | _ -> ()
    in
    close_out child.to_child;
    (match read_until child ~on "AUDIT" with
    | Some [ "ok" ] -> ()
    | Some fields -> fail "shutdown audit: %s" (String.concat " " fields)
    | None -> fail "launcher exited without an audit");
    (match reap child with
    | Unix.WEXITED 0 -> ()
    | _ -> fail "launcher exited abnormally");
    Array.iteri
      (fun i (s : session) ->
        List.iter (fun m -> fail "session %d: %s" i m) (List.rev s.problems))
      sessions;
    let merged f =
      Array.init n_kinds (fun k ->
          let m = Sample.create () in
          Array.iter
            (fun (s : session) ->
              for j = 0 to Sample.count s.lat.(k) - 1 do
                Sample.add m (f s.lat.(k).Sample.data.(j) s.at.(k).Sample.data.(j))
              done)
            sessions;
          m)
    in
    (* The measured phase in 10 ms steps, each scaled on its own. *)
    let scaled_elapsed =
      let steps = int_of_float (Float.ceil (phase /. 0.01)) in
      let total = ref 0. in
      for j = 0 to steps - 1 do
        let t = start +. (0.01 *. float_of_int j) in
        let dt = Float.min 0.01 (start +. phase -. t) in
        total := !total +. (dt *. scale speed (t +. (dt /. 2.)))
      done;
      !total -. gate.scaled_paused
    in
    { workload;
      setup_s = List.map (fun (_, s, _) -> s) samples;
      setup_wall_s = List.map (fun (w, _, _) -> w) samples;
      setup_rss_mb = List.map (fun (_, _, rss) -> rss) samples;
      peak_rss_mb = !peak;
      elapsed;
      scaled_elapsed;
      sessions;
      by_kind = merged (fun d _ -> d);
      scaled_by_kind = merged (fun d t -> d *. scale speed t);
      speed;
      stats_delta = Mood_obs.Metrics.diff ~before:stats0 ~after:stats1;
      stats_end = stats1;
      problems = List.rev !problems
    }
  in
  let r = Fun.protect ~finally:(fun () -> kill child) measure in
  let after = sample (extra - (extra / 2)) in
  ignore (reap reference);
  { r with
    setup_s = r.setup_s @ List.map (fun (_, s, _) -> s) after;
    setup_wall_s = r.setup_wall_s @ List.map (fun (w, _, _) -> w) after;
    setup_rss_mb = r.setup_rss_mb @ List.map (fun (_, _, rss) -> rss) after
  }

let kind_samples r kind = r.by_kind.(kind_index kind)

let scaled_kind_samples r kind = r.scaled_by_kind.(kind_index kind)

let attempted r = Array.fold_left (fun a s -> a + s.ops) 0 r.sessions

let failed r = Array.fold_left (fun a s -> a + s.failed) 0 r.sessions

let completed r = attempted r - failed r
