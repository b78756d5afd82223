(* Growable float sample sets and their percentiles. *)

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 256 0.; n = 0 }

let add t x =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0. in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

(* Nearest-rank percentile; 0 for an empty set. *)
let percentile t p =
  if t.n = 0 then 0.
  else begin
    let a = Array.sub t.data 0 t.n in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
    a.(max 0 (min (t.n - 1) (rank - 1)))
  end

let median_of xs =
  let t = create () in
  List.iter (add t) xs;
  percentile t 50.

let sum t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    s := !s +. t.data.(i)
  done;
  !s
