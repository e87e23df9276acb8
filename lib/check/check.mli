(** The kernel's static analyzer over the compiler's typed ASTs ([.cmt]
    files produced by the dune build): proves the kernel's
    park/latch/allocation disciplines and its determinism and idiom
    rules at build time (DESIGN.md §4k).

    Four interprocedural rule families, each named stably in findings:
    - [park-while-latched]: a non-I/O [Scheduler.park] reachable while a
      latch is held, with the call chain as witness;
    - [latch-order-cycle]: a cycle in the static latch
      acquisition-order graph (classes are record fields holding the
      latch, e.g. ["bufmgr.flatch"] — a superset of the runtime
      sanitizer's observed graph);
    - [hot-path-alloc]: heap allocation reachable from a
      [(* lint: hot-path *)]-tagged entry point;
    - [recovery-raise]: a raising stdlib partial ([Hashtbl.find],
      [List.hd], [Option.get], ...) reachable from WAL-replay or
      replication code.

    and the per-site rules of {!Sites} ([random], [wall-clock],
    [poly-compare], [poly-eq-id], [hashtbl-iter-mutate], [missing-mli],
    [hot-alloc]).

    Findings honor [(* lint: allow <rule> [file] *)] pragmas, at the
    finding site or — for reachability chains — at the entry point. *)

type config = {
  cmt_dirs : string list;  (** directories scanned recursively for [.cmt] files *)
  src_root : string;  (** root for resolving compiler-recorded source paths *)
  recovery_units : string list;
      (** units (["Recovery"]) or source directories (["lib/wal"]) whose
          toplevel functions are recovery entry points (default
          [["lib/replication"; "lib/wal"]]) *)
}

val default_config : config

type result = {
  findings : Report.finding list;  (** pragma-filtered, deterministically sorted *)
  order_edges : (string * string) list;
      (** the static acquisition-order graph over latch classes; the
          runtime sanitizer's observed edge set must be a subset *)
  n_units : int;
  n_defs : int;
  rendered : string;  (** the full report, byte-identical across runs *)
}

val analyze : config -> result
