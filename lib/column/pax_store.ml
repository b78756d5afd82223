module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Store = Mood_storage.Store
module Extent = Mood_storage.Extent
module Heap_file = Mood_storage.Heap_file
module Page = Mood_storage.Page
module Disk = Mood_storage.Disk
module M = Scan_metrics

(* The PAX segment of one class: a derived, checksummed columnar mirror
   of the class's row extent. The row heap stays authoritative — OLTP
   writes, WAL logging, MVCC chains and indexes are untouched — while
   each PAX page covers a fixed run of heap slots
   ([page = slot / rows_per_page]) and is rebuilt lazily whenever the
   extent's mutation hook reports a write in its range. Page images are
   stored as records of a dedicated heap file, chunked to the page
   frame, so segment I/O is charged through the same buffer pool and
   simulated disk as everything else. A page whose image fails its
   checksum — or whose frame the simulated disk reports torn — is
   rebuilt from the row heap on the spot: the layout self-heals. *)

type page_state =
  | Absent
  | Built of {
      chunks : Heap_file.rid array;
      mutable batch : Batch.t option;
          (* decoded view of the image, valid until the extent mutation
             hook or a reported tear drops it — the in-memory columnar
             cache that makes repeated scans decode-free. Volatile: a
             restart (or [drop_cached_batches]) forgets it, after which
             the image is re-read and re-verified. *)
    }

type t = {
  store : Store.t;
  extent : Extent.t;
  seg : Heap_file.t;
  mutable schema : (string * Pax.akind) array;
  mutable hints : (string * Pax.enc_hint) list;
  mutable rows_per_page : int;
  mutable pages : page_state array;
  mutable groups : int array option array option;
      (* the page-index partition of the extent's live slots:
         [groups.(idx)] holds page [idx]'s live slots ascending, or
         [None] once a write to the page made it stale — the next scan
         re-probes only that page's slot range. [None] as a whole: the
         next scan re-partitions the directory (first scan, bulk
         clear, new hints or schema). *)
  healed : (int * int, unit) Hashtbl.t;
      (* torn frames already consumed by a rebuild: the tear marker
         lives until the buffer pool rewrites the frame, and a rebuilt
         chunk can land on the same frame — without the memo every
         scan would re-heal the page. *)
}

(* Size a PAX page so its typical encoded image fits one page frame:
   the attribute minipages of [rows_per_page] slots share a single
   4 KB page, per the PAX layout. Wide rows that overflow the estimate
   simply spill into additional chunks of the same logical page. *)
let plan_rows_per_page store attrs =
  let est_width =
    List.fold_left (fun acc (_, ty) -> acc + Mtype.byte_size ty + 2) 9 attrs
  in
  max 64 (min 1024 (Store.page_capacity store / max 1 est_width))

let schema_of attrs =
  Array.of_list (List.map (fun (attr, ty) -> (attr, Pax.kind_of_type ty)) attrs)

let invalidate_page t idx =
  if idx < Array.length t.pages then
    match t.pages.(idx) with
    | Absent -> ()
    | Built { chunks; _ } ->
        Array.iter (fun rid -> ignore (Heap_file.delete t.seg rid)) chunks;
        t.pages.(idx) <- Absent

let invalidate_all t =
  t.pages <- [||];
  Heap_file.clear t.seg;
  Hashtbl.reset t.healed

(* O(1) amortized: an insert into a scanned PAX class must not pay for
   the page's slot range, let alone the table. *)
let mark_stale t idx =
  match t.groups with
  | None -> ()
  | Some groups when idx < Array.length groups -> groups.(idx) <- None
  | Some groups ->
      (* A page past the partition: every page between held no live
         slot when it was taken, and no write has touched one since. *)
      let grown = Array.make (max (idx + 1) (2 * Array.length groups)) (Some [||]) in
      Array.blit groups 0 grown 0 (Array.length groups);
      grown.(idx) <- None;
      t.groups <- Some grown

let on_mutate t = function
  | None ->
      t.groups <- None;
      invalidate_all t
  | Some slot ->
      let idx = slot / t.rows_per_page in
      mark_stale t idx;
      if idx < Array.length t.pages then invalidate_page t idx

let create ~store ~extent ~attrs =
  let t =
    { store;
      extent;
      seg = Store.new_heap_file store ();
      schema = schema_of attrs;
      hints = [];
      rows_per_page = plan_rows_per_page store attrs;
      pages = [||];
      groups = None;
      healed = Hashtbl.create 8
    }
  in
  Extent.set_mutation_hook extent (Some (fun slot -> on_mutate t slot));
  t

let detach t =
  Extent.set_mutation_hook t.extent None;
  invalidate_all t

let rows_per_page t = t.rows_per_page

let schema t = t.schema

let attr_names t = Array.to_list (Array.map fst t.schema)

let hints t = t.hints

let set_hints t hints =
  if hints <> t.hints then begin
    t.hints <- hints;
    t.groups <- None;
    invalidate_all t
  end

let refresh_schema t ~attrs =
  t.schema <- schema_of attrs;
  t.rows_per_page <- plan_rows_per_page t.store attrs;
  t.groups <- None;
  invalidate_all t

let ensure_page t idx =
  if idx >= Array.length t.pages then begin
    let fresh = Array.make (max 8 (2 * max idx (Array.length t.pages)) + 1) Absent in
    Array.blit t.pages 0 fresh 0 (Array.length t.pages);
    t.pages <- fresh
  end

(* ------------------------------------------------------------------ *)
(* Page image storage: one logical PAX page = 1..k heap records        *)

let chunk_capacity t = Store.page_capacity t.store - Page.slot_overhead

let store_image t idx image =
  let cap = max 256 (chunk_capacity t) in
  let len = String.length image in
  let nchunks = max 1 ((len + cap - 1) / cap) in
  let chunks =
    Array.init nchunks (fun i ->
        let pos = i * cap in
        Heap_file.insert t.seg (String.sub image pos (min cap (len - pos))))
  in
  ensure_page t idx;
  t.pages.(idx) <- Built { chunks; batch = None }

(* An un-consumed tear on any of the page's chunk frames. *)
let frame_torn t chunks =
  let seg_file = Heap_file.file_id t.seg in
  match Disk.torn_pages (Store.disk t.store) with
  | [] -> false
  | torn ->
      Array.exists
        (fun (rid : Heap_file.rid) ->
          List.mem (seg_file, rid.Heap_file.page) torn
          && not (Hashtbl.mem t.healed (seg_file, rid.Heap_file.page)))
        chunks

let drop_cached_batches t =
  Array.iter
    (function Built b -> b.batch <- None | Absent -> ())
    t.pages

type image = Missing | Torn | Image of string

let load_image t idx =
  match if idx < Array.length t.pages then t.pages.(idx) else Absent with
  | Absent -> Missing
  | Built { chunks; _ } ->
      let seg_file = Heap_file.file_id t.seg in
      let torn = Disk.torn_pages (Store.disk t.store) in
      let tear = frame_torn t chunks in
      if tear then begin
        (* The durable image of this frame is garbage; remember we
           consumed the tear so the rebuild is not re-healed forever. *)
        Array.iter
          (fun (rid : Heap_file.rid) ->
            if List.mem (seg_file, rid.Heap_file.page) torn then
              Hashtbl.replace t.healed (seg_file, rid.Heap_file.page) ())
          chunks;
        Torn
      end
      else begin
        let buf = Buffer.create 1024 in
        let ok =
          Array.for_all
            (fun rid ->
              match Heap_file.get t.seg rid with
              | Some payload ->
                  Buffer.add_string buf payload;
                  true
              | None -> false)
            chunks
        in
        if ok then Image (Buffer.contents buf) else Missing
      end

(* ------------------------------------------------------------------ *)
(* Build / decode                                                      *)

let build_page t slots =
  let rows =
    Array.map
      (fun slot ->
        match Extent.raw_get t.extent slot with
        | Some v -> v
        | None -> Value.Null (* raced directory change; cannot happen single-threaded *))
      slots
  in
  Pax.encode_page ~schema:t.schema ~hints:t.hints ~slots ~rows

(* The batch always comes from decoding the stored image — a single
   code path, so metrics, corruption detection and the sabotage
   control all act on what the page actually holds. *)
let batch_of_page t idx slots =
  let decode image = Pax.decode_page ~schema:t.schema image in
  let rebuild () =
    invalidate_page t idx;
    let image = build_page t slots in
    store_image t idx image;
    M.m.M.pages_built <- M.m.M.pages_built + 1;
    decode image
  in
  (* Decoded-batch cache: a clean page whose decoded view is still in
     memory skips the image read and decode entirely. Like a buffer
     pool, an in-memory view is not re-verified against the durable
     bytes — checksums run whenever the image is actually (re)read,
     i.e. after a mutation, a tear, or a cache drop. *)
  match if idx < Array.length t.pages then t.pages.(idx) else Absent with
  | Built { chunks; batch = Some batch }
    when (not (frame_torn t chunks))
         && Array.length batch.Batch.slots = Array.length slots ->
      M.m.M.batch_cache_hits <- M.m.M.batch_cache_hits + 1;
      batch
  | _ ->
      let batch =
        match load_image t idx with
        | Missing -> rebuild ()
        | Torn ->
            M.m.M.pages_healed <- M.m.M.pages_healed + 1;
            rebuild ()
        | Image image -> (
            match decode image with
            | batch when Array.length batch.Batch.slots = Array.length slots ->
                M.m.M.pages_reused <- M.m.M.pages_reused + 1;
                batch
            | _ ->
                M.m.M.pages_healed <- M.m.M.pages_healed + 1;
                rebuild ()
            | exception Pax.Corrupt _ ->
                M.m.M.pages_healed <- M.m.M.pages_healed + 1;
                rebuild ())
      in
      (match if idx < Array.length t.pages then t.pages.(idx) else Absent with
      | Built built -> built.batch <- Some batch
      | Absent -> ());
      batch

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

(* Page [idx]'s live slots, ascending, probed from the directory. *)
let probe_page t idx =
  let rpp = t.rows_per_page in
  let live = ref [] in
  for slot = ((idx + 1) * rpp) - 1 downto idx * rpp do
    if Extent.mem t.extent slot then live := slot :: !live
  done;
  Array.of_list !live

let partition t =
  let groups =
    match t.groups with
    | Some groups -> groups
    | None ->
        let rpp = t.rows_per_page in
        Array.make ((Extent.slot_bound t.extent + rpp - 1) / rpp) None
  in
  Array.iteri (fun idx g -> if g = None then groups.(idx) <- Some (probe_page t idx)) groups;
  t.groups <- Some groups;
  groups

(* The partition's non-empty pages in page order. *)
let iter_groups t f =
  Array.iteri
    (fun idx g ->
      match g with
      | Some slots when Array.length slots > 0 -> f idx slots
      | Some _ | None -> ())
    (partition t)

(* Per-batch MVCC: batches decode from the heap-mirroring page images,
   so under a snapshot only the slots the view cannot see need the
   version store. A batch holding none of them passes through
   untouched; one that does is re-columnarized with those rows
   resolved. The diverged set's members the heap no longer holds form
   a trailing batch. *)
let patch_batch t d batch =
  let kept = ref [] in
  for i = Array.length batch.Batch.slots - 1 downto 0 do
    let slot = batch.Batch.slots.(i) in
    match Hashtbl.find_opt d slot with
    | None -> kept := (slot, Batch.row_value batch i) :: !kept
    | Some v ->
        M.m.M.mvcc_patched <- M.m.M.mvcc_patched + 1;
        Option.iter (fun v -> kept := (slot, v) :: !kept) v
  done;
  Batch.of_rows ~attrs:(attr_names t) !kept

let iter_batches t ~f =
  let diverged = Extent.diverged t.extent in
  let touched = Hashtbl.create 8 in
  Option.iter
    (Hashtbl.iter (fun slot _ ->
         if Extent.mem t.extent slot then
           Hashtbl.replace touched (slot / t.rows_per_page) ()))
    diverged;
  iter_groups t (fun idx slots ->
      let batch = batch_of_page t idx slots in
      let batch =
        match diverged with
        | Some d when Hashtbl.mem touched idx -> patch_batch t d batch
        | Some _ | None -> batch
      in
      M.m.M.batches <- M.m.M.batches + 1;
      f batch);
  match Option.map (Extent.hidden_rows t.extent) diverged with
  | None | Some [] -> ()
  | Some hidden ->
      M.m.M.batches <- M.m.M.batches + 1;
      M.m.M.mvcc_patched <- M.m.M.mvcc_patched + List.length hidden;
      f (Batch.of_rows ~attrs:(attr_names t) hidden)

let materialize t = iter_batches t ~f:(fun _ -> ())

(* Clean page images and their chunk placement, for the recovery sim
   (byte-identical rebuild) and the torn-page tests. *)
let page_images t =
  let out = ref [] in
  iter_groups t (fun idx _ ->
      match load_image t idx with
      | Image image -> out := (idx, image) :: !out
      | Missing | Torn -> ());
  List.rev !out

let chunk_rids t =
  List.concat
    (List.mapi
       (fun idx state ->
         match state with
         | Absent -> []
         | Built { chunks; _ } -> [ (idx, Array.to_list chunks) ])
       (Array.to_list t.pages))

let segment t = t.seg
