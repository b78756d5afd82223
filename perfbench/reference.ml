(* The host-speed reference. The host these runs share swings its speed
   by 1.5-3x within minutes, and every wall-clock figure swings with it.
   So the client asks a separate reference process, several times a
   second, to run one fixed computation and report how long it took;
   the end-to-end latencies and throughput are then also reported
   scaled to a host on which that computation takes [nominal_s].

   The computation uses no MOOD code, so no change to MOOD can change
   it, and it runs in a process of its own, so its heap is the same in
   every run. It mixes what the kernel's work is made of: string
   hashing, sorting and list building, a persistent map that promotes
   to the major heap, and random reads from a page-sized byte buffer
   decoded into fresh tuples. *)

let nominal_s = 0.005

let sink = ref 0

let hash_sort () =
  let n = 4000 in
  let h = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (string_of_int ((i * 7919) land 0xffff)) i
  done;
  let a = Array.init n (fun i -> (i * 48271) mod 65521) in
  Array.sort compare a;
  let l = List.rev_map (fun x -> (x, string_of_int x)) (Array.to_list a) in
  sink :=
    !sink + Hashtbl.length h
    + List.fold_left (fun acc (x, s) -> if String.length s > 3 then acc + x else acc) 0 l

module Int_map = Map.Make (Int)

let map_build () =
  let m = ref Int_map.empty in
  for i = 0 to 8000 do
    m := Int_map.add ((i * 7919) land 0xfffff) (Some i) !m
  done;
  sink := !sink + Int_map.cardinal !m

let page_bytes = 1 lsl 20

let page = lazy (Bytes.init page_bytes (fun i -> Char.chr ((i * 131) land 255)))

let decode () =
  let b = Lazy.force page in
  let acc = ref [] and x = ref 12345 in
  for _ = 1 to 10000 do
    x := ((!x * 1103515245) + 12345) land (page_bytes - 1);
    let off = min (!x land lnot 7) (page_bytes - 8) in
    acc := (Int32.to_int (Bytes.get_int32_le b off), off) :: !acc
  done;
  sink := !sink + List.length !acc

let work () =
  hash_sort ();
  map_build ();
  decode ()

(* [moodbench reference]: one line in, one duration in seconds out,
   until standard input ends. *)
let serve () =
  work ();
  try
    while true do
      ignore (input_line stdin);
      let t0 = Unix.gettimeofday () in
      work ();
      Printf.printf "%.9f\n%!" (Unix.gettimeofday () -. t0)
    done
  with End_of_file -> ()
