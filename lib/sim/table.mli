(** The system under test: one keyed table over the real storage stack.

    An extent (heap file + slot directory, slot = key), a unique
    B+-tree on the integer key and a hash index on the string payload,
    all maintained incrementally and WAL-logged. Exposes checkpoint
    and recovery so a harness can crash it at an arbitrary write and
    restart it against the durable state. *)

type t

type checkpoint = {
  cp_image : (int * Mood_model.Value.t) list;
      (** extent contents at the checkpoint, slot-faithful *)
  cp_lsn : Mood_storage.Wal.lsn;
}

val create : store:Mood_storage.Store.t -> unit -> t

val store : t -> Mood_storage.Store.t
(** The store the table lives in — the MVCC harness reaches its
    version store through this (a recovered table builds a fresh one). *)

val extent : t -> Mood_storage.Extent.t
(** The extent the table lives in, for derived mirrors (the MVCC
    harness scans it through a PAX segment too). Rows are the tuples
    [<data: String>]. *)

val insert : t -> txn:int -> key:int -> data:string -> unit
(** Raises [Invalid_argument] when the key is live. *)

val update : t -> txn:int -> key:int -> data:string -> unit

val delete : t -> txn:int -> key:int -> unit

val get : t -> int -> string option

val abort : t -> txn:int -> unit
(** Live rollback: compensates the transaction's logged effects
    (newest first), keeps both indexes in step, then logs [Abort].
    May crash partway when a disk fault is armed — recovery must then
    treat the transaction as a loser. *)

val apply_redo : t -> Mood_storage.Wal.record -> unit
(** Idempotent upsert redo of one shipped record, indexes kept in
    step, nothing logged: the replica-side application primitive.
    Re-applying a record (or a whole batch) converges to the same
    image — [Insert]/[Update] upsert the after-image, [Delete] of an
    absent key is a no-op. Control records are ignored. *)

val apply_undo : t -> Mood_storage.Wal.record -> unit
(** Inverse of {!apply_redo}, equally idempotent: restores the
    before-image ([Insert] removes, [Delete]/[Update] put the
    before-image back). Used to scrub in-flight transactions' effects
    out of a bootstrap snapshot image. *)

val contents : t -> (int * string) list
(** Ascending by key — compared verbatim against
    {!Model.committed_bindings} after recovery. *)

val install_at : t -> slot:int -> Mood_model.Value.t -> unit
(** Slot-faithful unlogged install of one snapshot binding, indexes
    kept in step — replica bootstrap. *)

val clear : t -> unit
(** Unlogged wipe of every live binding (and its index entries) —
    run before re-installing a fresh bootstrap image. *)

val checkpoint : t -> active:int list -> checkpoint
(** Sharp checkpoint: forces the buffer pool and the log (both can
    crash mid-way), appends a [Checkpoint] record carrying [active],
    and returns the base image. Install-after-durable: the caller
    only receives (and should only hold onto) the image once the
    checkpoint record reached the durable prefix. *)

val recover :
  ?skip_undo:bool ->
  wal:Mood_storage.Wal.t ->
  checkpoint:checkpoint option ->
  unit ->
  t * Mood_storage.Wal.analysis
(** Restart from durable state: a fresh table is seeded with the base
    image (empty when [checkpoint] is [None]), the WAL's
    undo-of-losers / redo-of-committed pass runs against its heap, and
    the indexes are rebuilt by scan. [skip_undo] deliberately omits
    the undo pass — the negative test proving the harness detects a
    broken recovery protocol. *)

val check : t -> string list
(** Structural invariants of both indexes plus cross-structure
    consistency: every heap record reachable through the B+-tree
    (exactly its own singleton posting) and the hash index, no
    dangling postings, cardinalities agree. [[]] when healthy; also
    usable standalone on a live table. *)
