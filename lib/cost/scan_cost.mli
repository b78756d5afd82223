(** Scan-method choice: row (tuple-at-a-time, interpreted) vs
    vectorized (batch-at-a-time over the class's PAX segment).

    The vectorized formula charges the layout-aware terms [MPSCOST]
    (sequential minipage sweep over the compressed segment) and
    [DECCOST] (dictionary/RLE decode), plus a per-row CPU touch
    discounted for the tight compiled batch loop; the row formula is
    the classic [SEQCOST + rows * CPUCOST]. *)

type choice = Io_cost.scan_method = Row_scan | Vectorized

val choose : Io_cost.params -> Stats.t -> cls:string -> pax:bool -> choice * float
(** Honors the [scan_force] hint; otherwise picks the cheaper method for a PAX
    class and [Row_scan] for a row class (transient batching buys no
    I/O there). *)

val pp_choice : Format.formatter -> choice -> unit

val choice_of_string : string -> choice option
