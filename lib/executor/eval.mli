(** Evaluation of MOODSQL expressions and predicates over binding rows.

    A row binds each range variable to an extent item. Path expressions
    dereference through the catalog (charging the simulated disk);
    method calls go through the Function Manager (late binding);
    arithmetic uses the [OperandDataType] machinery, so run-time type
    checking matches Section 2. *)

exception Eval_error of string

type env = {
  catalog : Mood_catalog.Catalog.t;
  funcs : Mood_funcmgr.Function_manager.t;
  scope : Mood_funcmgr.Function_manager.scope;
  join_mem : int;
      (** Value-join memory budget (bytes): the database's
          [Io_cost.params.join_mem_bytes]. *)
}

type row = (string * Mood_algebra.Collection.item) list

val ctx : env -> Mood_algebra.Collection.ctx
(** The algebra evaluation context backed by the catalog. *)

val expr : env -> row -> Mood_sql.Ast.expr -> Mood_model.Value.t
(** A path through a null reference yields [Null]; a path over a
    set/list of references yields the Set/List of reached values (the
    data model's multi-valued navigation). Raises [Eval_error] on
    unbound variables or missing attributes. *)

val predicate : env -> row -> Mood_sql.Ast.predicate -> bool
(** Three-valued logic collapsed to two: comparisons involving [Null]
    are false ([Ne] included); a comparison against a multi-valued path
    holds when {e some} element satisfies it (existential semantics). *)

val compare_values : Mood_model.Value.t -> Mood_model.Value.t -> int option
(** Comparison used by predicates and ORDER BY: numerics compare
    numerically across kinds, strings/chars lexicographically,
    references by identity; [None] when incomparable or either side is
    [Null]. *)

(** {1 Building blocks}

    Exposed for the closure compiler ([Compile]), which lowers
    expressions and predicates into OCaml closures once per plan and
    needs the same navigation/comparison semantics per row. *)

val navigate : env -> Mood_model.Value.t -> string list -> Mood_model.Value.t list
(** All values reached from a value along an attribute path,
    dereferencing references and fanning out over sets/lists. *)

val lookup_var : row -> string -> Mood_algebra.Collection.item
(** Raises [Eval_error] when the variable is unbound. *)

val item_ref : Mood_algebra.Collection.item -> Mood_model.Value.t
(** The item as a value: [Ref oid] for stored objects, the transient
    value otherwise. *)

val cmp_values :
  Mood_sql.Ast.comparison -> Mood_model.Value.t -> Mood_model.Value.t -> bool
(** One comparison under the predicate semantics: existential over
    multi-valued sides, [Null] never compares. *)

val eval_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises [Eval_error] with a formatted message. *)
