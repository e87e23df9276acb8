(** Per-site rules over the typed ASTs (see sites.ml). Each finding
    names one expression, or for [missing-mli] one unit:
    - [random]: a value under [Stdlib.Random];
    - [wall-clock]: [Unix.gettimeofday], [Unix.time] or [Sys.time];
    - [poly-compare]: a reference resolving to [Stdlib.compare];
    - [poly-eq-id]: [Stdlib.(=)] or [Stdlib.(<>)] applied to an
      identifier or field whose name ends in [xid], [lsn], [gsn] or
      [page_id];
    - [hashtbl-iter-mutate]: [Hashtbl.iter (fun ...) tbl] whose closure
      removes, replaces, adds to or resets the same path or field;
    - [missing-mli]: a unit under a [lib] directory without a [.cmti];
    - [hot-alloc]: in a unit for which [hot] holds, a direct
      [Buffer.create], [Bytes.create], [Array.make], [Printf.sprintf],
      or [List.map] applied to a closure. *)

val findings : hot:(Loader.unit_info -> bool) -> Loader.t -> Report.finding list
(** Unfiltered findings (no pragmas applied), in unit and source order. *)
