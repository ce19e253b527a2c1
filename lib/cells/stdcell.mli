(** Generation of [stdcell.qmasm] — the standard-cell library file that
    edif2qmasm-style output [!include]s (section 4.3.2, Listing 2).

    Every Table 5 cell becomes a QMASM macro whose body lists the cell's
    h and J coefficients over its pin names (ancillas as [$a], [$b]), with an
    [!assert] stating the cell's logic for post-solution checking. *)

val contents : unit -> string
(** The full library text, built once when the module is initialised
    (so it is safe to call from several domains at once). *)

val line_count : unit -> int
(** Statement-bearing lines, for the section 6.1 metrics (the paper reports
    232 lines for its stdcell.qmasm). *)
