(* The benchmark's own server launcher. It builds the workload's
   database in-process (so the optimizer sees the new index, which no
   wire statement can arrange) and serves it with the shipped server
   defaults: 256-frame buffer pool, 4 workers, a queue of 64, group
   commit on, no emulated commit latency, snapshot reads on.

   It talks to the client over its standard streams, one tab-separated
   record per line:
     SETUP <seconds> <rss_kb>     set-up time and resident set after it
     SUM0 <n>                     SUM(v.weight) after warm-up
     EXPECT <digest> <sql>        reply digest of a fixed statement text
     READY <port>                 serving
   then, once its standard input reaches end of file, it shuts down and
   reports
     PEAK <kb>                    high-water resident set
     AUDIT ok | AUDIT <leak>      the server's shutdown audit *)

module Server = Mood_server.Server

(* Resident-set figures of this process, in kB, from its own status
   file. *)
let status_kb field =
  let prefix = field ^ ":" in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> 0
        | Some line when String.starts_with ~prefix line ->
            Scanf.sscanf line "%_s %d" Fun.id
        | Some _ -> find ()
      in
      find ())

let timed_build workload ~seed =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let built = Setup.build workload ~seed in
  let dt = Unix.gettimeofday () -. t0 in
  Gc.full_major ();
  (built, dt, status_kb "VmRSS")

let emit fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt

(* [setup-only]: build once, report, exit — the extra set-up samples. *)
let setup_only workload ~seed =
  let _, dt, rss = timed_build workload ~seed in
  emit "SETUP\t%.6f\t%d" dt rss

let serve workload ~seed =
  let built, dt, rss = timed_build workload ~seed in
  emit "SETUP\t%.6f\t%d" dt rss;
  emit "SUM0\t%d" built.Setup.sum0;
  List.iter (fun (sql, d) -> emit "EXPECT\t%s\t%s" d sql) built.Setup.expected;
  let server = Server.start ~config:Server.default_config built.Setup.db in
  emit "READY\t%d" (Option.get (Server.port server));
  (* Block until the client closes our standard input. *)
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  Server.shutdown server;
  emit "PEAK\t%d" (status_kb "VmHWM");
  match Server.audit server with
  | Ok () -> emit "AUDIT\tok"
  | Error m -> emit "AUDIT\t%s" m
