(** Deterministic crash–recovery harness.

    One cycle: seed a PRNG, run a randomized multi-transaction
    workload (inserts/updates/deletes over a heap extent with B+-tree
    and hash indexes, under per-key exclusive locks, with random sharp
    checkpoints), crash it at a random point — either a disk-level
    write fault (possibly mid log-flush or mid buffer write-back, with
    torn pages) or a cut between operations — then lose the dirty
    frames and the unpersisted log tail, run ARIES-lite recovery, and
    compare the recovered table against a pure in-memory oracle.

    Everything derives from the integer seed: a reported violation is
    reproduced by rerunning [run_cycle ~seed]. *)

type outcome = {
  o_seed : int;
  o_crash_point : string;  (** where the crash landed, for reports *)
  o_violations : string list;  (** [] = recovery was correct *)
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
      (** seed, crash point, message — everything needed to reproduce *)
}

val run_cycle : ?skip_undo:bool -> seed:int -> unit -> outcome
(** One workload–crash–recover–check cycle. [skip_undo] runs the
    deliberately broken recovery (no undo pass) — used to prove the
    harness detects protocol violations. *)

val run : ?skip_undo:bool -> ?quota:int -> base_seed:int -> unit -> report
(** [quota] cycles (default 200) under seeds [base_seed],
    [base_seed+1], … *)

val pp_report : Format.formatter -> report -> unit

(** {2 Replication cycles}

    One cycle: a seeded primary workload (same transaction machinery
    as {!run_cycle}, but the primary never crashes — commits are
    durable at flush) runs alongside a {!Replica} that bootstraps from
    a sharp snapshot and pulls durable WAL batches. The fault stream
    crashes the replica mid-batch (losing its whole in-memory state —
    recovery is a fresh bootstrap from a {e new} snapshot, possibly
    with different transactions in flight) and re-delivers whole
    batches (torn-connection retry). At the end the replica catches
    up, promotes (drops loser buffers) and must hold exactly the
    oracle's committed bindings with both indexes structurally valid. *)

type repl_outcome = {
  ro_seed : int;
  ro_violations : string list;  (** [] = replica converged *)
  ro_steps : int;
  ro_commits : int;             (** primary commits *)
  ro_aborts : int;
  ro_deadlocks : int;
  ro_snapshots : int;           (** bootstrap snapshots taken *)
  ro_crashes : int;             (** replica crashes mid-batch *)
  ro_redeliveries : int;        (** whole batches applied twice *)
  ro_bootstraps : int;
  ro_applied_commits : int;     (** transactions the replica applied *)
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
  rr_violations : (int * string) list;  (** seed, message *)
}

val run_repl_cycle : ?skip_scrub:bool -> seed:int -> unit -> repl_outcome
(** One primary-writes / replica-applies / crash / catch-up / promote
    cycle. [skip_scrub] deliberately skips backing in-flight
    transactions' effects out of the bootstrap image — the negative
    mode proving the harness detects the leak. *)

val run_repl : ?skip_scrub:bool -> ?quota:int -> base_seed:int -> unit -> repl_report
(** [quota] cycles (default 200) under seeds [base_seed],
    [base_seed+1], … *)

val pp_repl_report : Format.formatter -> repl_report -> unit

(** {2 MVCC snapshot cycles}

    One cycle: the {!run_cycle} transaction machinery (strict 2PL
    writers over the real storage stack) runs with version tracking
    enabled and {e no} disk faults — flushes always survive, so the
    oracle's per-snapshot expectations are exact. The workload opens
    up to four concurrent snapshots, re-reads each — through the row
    scan and through a PAX mirror of the same extent — against
    {!Model.snapshot_expected} while commits, aborts, checkpoints and
    explicit GC runs happen around it (repeatable read, no dirty
    reads, GC never eats a chain a live snapshot needs), then crashes
    at the step budget. Recovery must reproduce the committed
    bindings, and a snapshot opened on the recovered store must read
    exactly that state — and keep reading it across a post-recovery
    committed write (version chains rebuild consistently). *)

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
  mr_violations : (int * string) list;  (** seed, message (crash point inline) *)
}

val run_mvcc : ?quota:int -> base_seed:int -> unit -> mvcc_report
(** [quota] cycles (default 200) under seeds [base_seed],
    [base_seed+1], … *)

val pp_mvcc_report : Format.formatter -> mvcc_report -> unit
