(** Crash recovery and replica apply: the one place WAL records turn
    into applied state.

    Records are grouped into per-file runs, each attributed to the
    Commit record that ends it in that file's LSN order; committed
    operations are applied with inserts in (table, rid) order and
    everything else in (GSN, slot, LSN) order — the GSN Lamport order
    makes same-page operations globally ordered. Records from
    uncommitted transactions are dropped, implementing the redo side of
    "Non-Force, Steal" (in-memory UNDO never survives a crash, so
    nothing needs rolling back).

    {!replay} runs this over a whole WAL store; replicas drive the same
    accumulator ({!runs}) incrementally over a shipped stream. *)

type apply = {
  insert : table:int -> rid:int -> Phoebe_storage.Value.t array -> unit;
  update : table:int -> rid:int -> (int * Phoebe_storage.Value.t) array -> unit;
  delete : table:int -> rid:int -> unit;
}

type in_doubt = { gxid : int; coord : int; ops : Record.t list }
(** A slot run that prepared (two-phase commit) but whose decision
    record did not survive the crash. Resolved at replay time by the
    caller's [decide_in_doubt] against the coordinator shard's log —
    the gxid is the coordinator's local xid, so a Commit for it there
    means commit, anything else means presumed abort. *)

type report = {
  files_read : int;
  records_read : int;
  committed_txns : int;
  ops_replayed : int;
  ops_dropped : int;  (** operations of uncommitted transactions *)
  torn_tails : int;  (** files whose tail was cut mid-record by a crash *)
  bytes_skipped : int;  (** bytes past the last decodable record, all files *)
  corrupt_records : int;
      (** files where decoding stopped on a damaged record with more
          data after it — never produced by a clean crash *)
  in_doubt : in_doubt list;  (** prepared-but-undecided branches, per slot *)
}

val replay :
  ?after:(int -> int) -> ?decide_in_doubt:(in_doubt -> bool) -> Phoebe_io.Walstore.t -> apply -> report
(** Feed every file of the store to a fresh {!runs}, {!resolve}, and
    {!drain} into [apply]. [after slot] is a per-slot LSN frontier:
    records at or below it are already reflected in the restored state
    (checkpoint) and skipped. Default: replay everything.
    [decide_in_doubt] resolves each prepared-but-undecided branch:
    [true] replays its ops (merged into the global ordering so row-id
    allocation order is preserved), [false] drops them. Default:
    presumed abort. The branch appears in the report's [in_doubt]
    either way.
    @raise Phoebe_util.Phoebe_error.Bug if a frontier lands on a data
    record — a checkpoint can only cover whole transactions, so a
    mid-transaction frontier means the snapshot or the WAL is wrong and
    replaying would silently split the transaction. *)

val committed_transactions : Phoebe_io.Walstore.t -> (int * int) list
(** (xid, cts) pairs found in the logs, sorted by cts. *)

(** {1 Incremental apply} *)

type runs
(** Run accumulator: open per-file runs plus the committed operations
    not yet applied. *)

val runs : ?decide_in_doubt:(in_doubt -> bool) -> unit -> runs
(** An empty accumulator; [decide_in_doubt] is used by {!resolve}
    (default: presumed abort). *)

val feed : runs -> file:int -> Record.t -> unit
(** Add one record of [file]; each file's records must arrive in LSN
    order. Commit releases the file's open run for apply, Abort drops
    it, Prepare withholds it until {!resolve}.
    @raise Phoebe_util.Phoebe_error.Bug on a second Prepare in one run. *)

val resolve : runs -> unit
(** The log has ended: close every open run, in file order. A prepared
    run goes to [decide_in_doubt] and is released iff it answers
    [true]; any other open run is an uncommitted transaction and is
    dropped. Afterwards nothing is held back. *)

val drain : runs -> (Record.t -> bool) -> unit
(** Apply the released operations in apply order. A committed insert
    is held back while an open run holds an insert of a lower row id in
    the same table (overlapping transactions interleave row ids); it is
    released once that run commits, aborts or is resolved. An operation
    for which the callback returns [false] stays queued and is retried,
    in apply order with later ones, by the next [drain]. *)

val unapplied : runs -> int
(** Released operations still queued: held-back inserts plus operations
    the applier refused. *)

val compare_gsn : Record.t -> Record.t -> int
(** The cross-file order of non-insert records: (GSN, slot, LSN). *)
