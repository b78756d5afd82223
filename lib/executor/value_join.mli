(** Memory-bounded value joins: canonical/Grace hash join, external
    sort-merge join and the Odra-style fusion join over collection
    attributes.

    All algorithms share one correctness architecture: candidate pairs
    come from a canonical string key with exactly the predicate's
    comparison semantics ([Eval.compare_values] at the top level,
    [Value.compare] inside containers, one-level flattening of
    collection-valued keys like [Eval.cmp_values]); each (left, right)
    pair is deduplicated and re-checked against the {e full} compiled
    predicate before emission, so results are multiset-identical to the
    interpreted nested loop — which the differential join oracle
    ([Mood_sim.Join_oracle]) pins. Spills run through
    [Store.new_temp_file] heap files: charged by the simulated disk,
    surfaced as [join.*] metrics, and crash-injectable. *)

type side = { s_rows : Eval.row list; s_key : Compile.expr_fn }
(** One join input: its binding rows and the compiled expression
    producing the join key of a row (a collection-valued key joins
    through its elements, the predicate's existential semantics). *)

val run :
  Mood_cost.Join_cost.method_choice ->
  Eval.env ->
  store:Mood_storage.Store.t ->
  pred:Compile.pred_fn ->
  left:side ->
  right:side ->
  Eval.row list
(** Executes [Hash_join], [Grace_hash], [Sort_merge] or [Fusion_join]
    (raises [Invalid_argument] for the pointer methods and
    [Nested_loop], which keep their existing executor paths). Emitted
    rows are [left_row @ right_row], each surviving pair exactly once.
    The memory budget is the env's [join_mem]; above it, Grace
    hash partitions recursively (fanout 2–16, depth ≤ 4, then an
    in-memory fallback) and sort-merge spills its initial runs. *)

val metrics : unit -> (string * int) list
(** Process-wide [join.*] counters: partitions spilled, spill bytes,
    merge passes, fusion hits, hash builds, in-memory fallbacks —
    shaped for [Metrics.register_source]. *)

val fallbacks : int ref
(** The [join.fallbacks] counter — also bumped by the executor when a
    forced value-join method meets a predicate with no usable equality
    conjunct and degrades to the nested loop. *)

val sabotage_skip_rewind : bool ref
(** Test-only fault: when set, sort-merge pairs only the first left row
    of a duplicate-key block (the classic missing-rewind bug). The
    differential oracle must catch this. *)
