(* Workload definitions shared by the launcher, the wire client and the
   traced replay: scale, statement texts, and the seeded operation
   streams. The server only ever receives the texts generated here. *)

module Prng = Mood_util.Prng

type workload = Oltp_point | Scan_paths | Mixed_rw

let workloads = [ Oltp_point; Scan_paths; Mixed_rw ]

let name = function
  | Oltp_point -> "oltp_point"
  | Scan_paths -> "scan_paths"
  | Mixed_rw -> "mixed_rw"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* 0.05 is the smallest scale at which the optimizer picks the B-tree
   on Vehicle(id). At 0.1 the 149 pages the row scans and paths touch
   (Vehicle 87, VehicleDriveTrain 34, VehicleEngine 28) fit the
   256-frame pool, so scan_paths runs from a warm pool; Company's 741
   row-heap pages are read only to build PAX pages. *)
let scale = function Oltp_point -> 0.05 | Scan_paths | Mixed_rw -> 0.1

let vehicles w = int_of_float (20000. *. scale w)

type kind = Read | Write | Txn | Scan_row | Scan_pax | Path

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Txn -> "txn"
  | Scan_row -> "scan_row"
  | Scan_pax -> "scan_pax"
  | Path -> "path"

(* Each workload reports three kinds under the fixed slot names
   op1..op3, so every workload prints the same metric names. The tail
   percentile is p99 where a run collects thousands of samples of a
   kind, p90 where it collects hundreds. mixed_rw's reader also runs
   scan_row; its latency is printed in the table but not slotted. *)
let slots = function
  | Oltp_point -> [| Read; Write; Txn |]
  | Scan_paths -> [| Scan_pax; Scan_row; Path |]
  | Mixed_rw -> [| Txn; Scan_pax; Path |]

let tail_pct = function Oltp_point -> 99. | Scan_paths | Mixed_rw -> 90.

let sessions = function Oltp_point | Mixed_rw -> 2 | Scan_paths -> 1

(* One logical operation: a single autocommit statement, or a whole
   BEGIN .. COMMIT transaction. *)
type op = { kind : kind; stmts : string list; txn : bool }

let read_sql k = Printf.sprintf "SELECT v.weight FROM Vehicle v WHERE v.id = %d" k

let update_sql k =
  Printf.sprintf "UPDATE Vehicle v SET weight = v.weight + 1 WHERE v.id = %d" k

let scan_row_texts =
  Array.map
    (Printf.sprintf
       "SELECT COUNT(*), SUM(v.weight), AVG(v.weight) FROM Vehicle v WHERE v.weight > %d")
    [| 900; 1200; 1500; 1800; 2100; 2400; 2700; 2900 |]

let locations = [| "Ankara"; "Munich"; "Tokyo"; "Detroit"; "Istanbul" |]

let scan_pax_texts =
  Array.map (Printf.sprintf "SELECT COUNT(*) FROM Company c WHERE c.location = '%s'") locations

(* The shape of the paper's Example 8.2 over every cylinder count. *)
let path_texts =
  Array.init 16 (fun i ->
      Printf.sprintf "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = %d"
        (2 * (i + 1)))

(* The fixed statement texts a workload's scans and paths draw from;
   setup runs each once, which warms the plan cache and the PAX pages
   and records the value every later reply must equal. *)
let fixed_texts = function
  | Oltp_point -> [||]
  | Scan_paths | Mixed_rw -> Array.concat [ scan_row_texts; scan_pax_texts; path_texts ]

(* Rows the mixed_rw writer adds never match a scan_pax filter, and the
   weights it bumps are invisible to a path reply (vehicle references),
   so only scan_row results may drift under it. *)
let checkable workload kind =
  match (workload, kind) with
  | Mixed_rw, Scan_row -> false
  | _, (Scan_row | Scan_pax | Path) -> true
  | _ -> false

let auto kind sql = { kind; stmts = [ sql ]; txn = false }

let scan_op rng =
  match Prng.int rng ~bound:3 with
  | 0 -> auto Scan_row (Prng.pick rng scan_row_texts)
  | 1 -> auto Scan_pax (Prng.pick rng scan_pax_texts)
  | _ -> auto Path (Prng.pick rng path_texts)

let oltp_op ~n rng =
  let key () = Prng.int rng ~bound:n in
  let roll = Prng.int rng ~bound:100 in
  if roll < 60 then auto Read (read_sql (key ()))
  else if roll < 85 then auto Write (update_sql (key ()))
  else
    let engine =
      Printf.sprintf "new VehicleEngine <%d, %d>"
        (1000 + Prng.int rng ~bound:2000)
        (2 * (1 + Prng.int rng ~bound:16))
    in
    let upd = update_sql (key ()) in
    { kind = Txn; stmts = [ engine; upd; read_sql (key ()) ]; txn = true }

let writer_op ~n ~serial rng =
  let company = Printf.sprintf "new Company <'W%d', 'Nowhere', NULL>" serial in
  { kind = Txn; stmts = [ company; update_sql (Prng.int rng ~bound:n) ]; txn = true }

(* The operation stream of one session: the same (workload, seed,
   session) always yields the same sequence. *)
let stream workload ~seed ~session =
  let rng = Prng.create ~seed:((seed * 7919) + session + 1) in
  let n = vehicles workload in
  let serial = ref 0 in
  match (workload, session) with
  | Oltp_point, _ -> fun () -> oltp_op ~n rng
  | Scan_paths, _ | Mixed_rw, 0 -> fun () -> scan_op rng
  | Mixed_rw, _ ->
      fun () ->
        incr serial;
        writer_op ~n ~serial:!serial rng

(* The first [count] operations of a stream. *)
let take workload ~seed ~session count =
  let next = stream workload ~seed ~session in
  List.init count (fun _ -> next ())

let sum_sql = "SELECT SUM(v.weight) FROM Vehicle v"

let updates op =
  List.length
    (List.filter
       (fun s -> String.length s >= 6 && String.sub s 0 6 = "UPDATE")
       op.stmts)

(* Probes of the traced run: Example 8.1 and a method predicate with
   its method-free twin ([lbweight] is [weight * 2]). *)
let example_81 = Mood_workload.Vehicle.example_81

let method_probe = "SELECT COUNT(*) FROM Vehicle v WHERE v.lbweight() > 4000"

let method_twin = "SELECT COUNT(*) FROM Vehicle v WHERE v.weight * 2 > 4000"

(* The integer in a rendered one-column row, e.g. "<SUM(v.weight): 42>". *)
let int_of_row row =
  let start = match String.rindex_opt row ':' with Some i -> i + 1 | None -> 0 in
  let body = String.sub row start (String.length row - start) in
  let digits = String.concat "" (String.split_on_char '>' body) in
  int_of_string_opt (String.trim digits)
