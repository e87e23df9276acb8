module Walstore = Phoebe_io.Walstore

type apply = {
  insert : table:int -> rid:int -> Phoebe_storage.Value.t array -> unit;
  update : table:int -> rid:int -> (int * Phoebe_storage.Value.t) array -> unit;
  delete : table:int -> rid:int -> unit;
}

type in_doubt = { gxid : int; coord : int; ops : Record.t list }

type report = {
  files_read : int;
  records_read : int;
  committed_txns : int;
  ops_replayed : int;
  ops_dropped : int;
  torn_tails : int;
  bytes_skipped : int;
  corrupt_records : int;
  in_doubt : in_doubt list;
}

let read_all store =
  List.concat_map
    (fun file -> fst (Record.decode_all (Walstore.contents store ~file) ~slot:file))
    (Walstore.files store)

let compare_gsn (a : Record.t) (b : Record.t) =
  let c = Int.compare a.gsn b.gsn in
  if c <> 0 then c
  else begin
    let c = Int.compare a.slot b.slot in
    if c <> 0 then c else Int.compare a.lsn b.lsn
  end

(* Inserts are applied first, in (table, rid) order, then everything
   else in (GSN, slot, LSN) order. Row ids are allocated monotonically
   and never reused, so every update/delete of a rid follows its
   insert anyway; ordering the inserts by rid (rather than GSN) keeps
   the rebuild appending in allocation order — two inserts that landed
   on different pages carry GSNs from different Lamport clocks, and
   their GSN order need not match rid order. *)
let compare_apply (a : Record.t) (b : Record.t) =
  match (a.Record.op, b.Record.op) with
  | Record.Insert { table = ta; rid = ra; _ }, Record.Insert { table = tb; rid = rb; _ } ->
    if ta <> tb then Int.compare ta tb else Int.compare ra rb
  | Record.Insert _, _ -> -1
  | _, Record.Insert _ -> 1
  | _ -> compare_gsn a b

(* ------------------------------------------------------------------ *)
(* Run grouping.

   A transaction's data records carry no xid (they are ordered within
   their slot's file); a slot runs many transactions, so a slot's data
   records belong to the next commit record *in that slot's LSN order* —
   exactly how the slot writer interleaves them:
   [ops of txn1][commit txn1][ops of txn2][commit txn2]... A run still
   open when the log ends belongs to an uncommitted transaction and is
   dropped; an Abort record drops it early.

   Two-phase commit adds one wrinkle: a run may end
   [ops][Prepare {gxid; coord}] with the decision record (Commit/Abort)
   cut off. A fiber that has prepared keeps its slot parked until the
   decision arrives, so at most one prepared run exists per file and it
   is always the *last* run. [resolve] hands it to [decide_in_doubt]:
   [true] merges its ops into the apply set (where the global ordering
   keeps row-id allocation order intact — applying them after the fact
   would append out of order), [false] withholds them (presumed abort).
   Either way the branch is surfaced in [in_doubt].

   Fed incrementally (a replica's stream), committed inserts may arrive
   while a still-open run of another slot holds a *lower* row id of the
   same table: overlapping transactions interleave their row-id
   allocations. Applying the higher rid first would put the lower one
   in the table's past, so [drain] holds such an insert back until
   every open run below it has committed or aborted. Per-table GSN
   order follows rid order (appends log under the table's append
   latch), so a lower-rid insert always precedes a higher one in any
   GSN-prefix of the log: nothing can arrive below a rid once it is
   applied. *)

type run = {
  mutable ops : Record.t list;  (** newest first *)
  mutable inserts : int;  (** Insert records among [ops] *)
  mutable prepared : (int * int) option;  (** (gxid, coord) once prepared *)
}

type runs = {
  decide : in_doubt -> bool;
  open_runs : (int, run) Hashtbl.t;  (** per file *)
  mutable last_file : int;  (** file fed last; -1 for none *)
  mutable last_run : run;  (** its run *)
  mutable open_inserts : int;  (** Insert records across open runs *)
  floors : (int, int) Hashtbl.t;  (** [drain] scratch: table -> lowest open insert rid *)
  mutable ready : Record.t list;  (** committed, not yet applied *)
  mutable committed : int;
  mutable dropped : int;
  mutable applied : int;
  mutable decided : in_doubt list;  (** newest first *)
}

let runs ?(decide_in_doubt = fun _ -> false) () =
  {
    decide = decide_in_doubt;
    open_runs = Hashtbl.create 16;
    last_file = -1;
    last_run = { ops = []; inserts = 0; prepared = None };
    open_inserts = 0;
    floors = Hashtbl.create 4;
    ready = [];
    committed = 0;
    dropped = 0;
    applied = 0;
    decided = [];
  }

(* Files arrive in long same-file stretches: remember the last run
   rather than look it up (and allocate an option) per record. *)
let run_of rs file =
  if not (Int.equal rs.last_file file) then begin
    let run =
      match Hashtbl.find_opt rs.open_runs file with
      | Some run -> run
      | None ->
        let run = { ops = []; inserts = 0; prepared = None } in
        Hashtbl.add rs.open_runs file run;
        run
    in
    rs.last_file <- file;
    rs.last_run <- run
  end;
  rs.last_run

let close_run rs run =
  rs.open_inserts <- rs.open_inserts - run.inserts;
  run.ops <- [];
  run.inserts <- 0;
  run.prepared <- None

let feed rs ~file (r : Record.t) =
  let run = run_of rs file in
  match r.Record.op with
  | Record.Commit _ ->
    rs.committed <- rs.committed + 1;
    rs.ready <- List.rev_append run.ops rs.ready;
    close_run rs run
  | Record.Abort _ ->
    rs.dropped <- rs.dropped + List.length run.ops;
    close_run rs run
  | Record.Prepare { gxid; coord; _ } ->
    (* the prepared fiber holds its slot until the decision, so a
       second Prepare before a Commit/Abort cannot happen *)
    (match run.prepared with
    | Some _ ->
      Phoebe_util.Phoebe_error.bug ~subsystem:"recovery"
        "slot=%d: two Prepare records without a decision between" r.Record.slot
    | None -> ());
    run.prepared <- Some (gxid, coord)
  | Record.Insert _ ->
    run.ops <- r :: run.ops;
    run.inserts <- run.inserts + 1;
    rs.open_inserts <- rs.open_inserts + 1
  | Record.Update _ | Record.Delete _ -> run.ops <- r :: run.ops

let resolve rs =
  let open_ = Hashtbl.fold (fun file run acc -> (file, run) :: acc) rs.open_runs [] in
  List.iter
    (fun (_, run) ->
      match run.prepared with
      | Some (gxid, coord) ->
        let d = { gxid; coord; ops = List.rev run.ops } in
        rs.decided <- d :: rs.decided;
        if rs.decide d then rs.ready <- List.rev_append run.ops rs.ready
        else rs.dropped <- rs.dropped + List.length run.ops
      | None -> rs.dropped <- rs.dropped + List.length run.ops)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) open_);
  Hashtbl.reset rs.open_runs;
  rs.last_file <- -1;
  rs.open_inserts <- 0

(* Split released ops into those held back behind a lower open insert
   and those that may apply now. *)
let hold_back rs ready =
  if rs.open_inserts = 0 then ([], ready)
  else begin
    (* lowest row id each table has inserted under a still-open run *)
    Hashtbl.clear rs.floors;
    Hashtbl.iter
      (fun _ run ->
        List.iter
          (fun (r : Record.t) ->
            match r.Record.op with
            | Record.Insert { table; rid; _ } -> (
              match Hashtbl.find_opt rs.floors table with
              | Some lo when lo <= rid -> ()
              | _ -> Hashtbl.replace rs.floors table rid)
            | _ -> ())
          run.ops)
      rs.open_runs;
    List.partition
      (fun (r : Record.t) ->
        match r.Record.op with
        | Record.Insert { table; rid; _ } -> (
          match Hashtbl.find_opt rs.floors table with Some lo -> rid > lo | None -> false)
        | _ -> false)
      ready
  end

let drain rs apply =
  match rs.ready with
  | [] -> ()
  | ready ->
    let waiting, go = hold_back rs ready in
    rs.ready <- waiting;
    List.iter
      (fun r -> if apply r then rs.applied <- rs.applied + 1 else rs.ready <- r :: rs.ready)
      (List.sort compare_apply go)

let unapplied rs = List.length rs.ready

let apply_record apply (r : Record.t) =
  (match r.Record.op with
  | Record.Insert { table; rid; row } -> apply.insert ~table ~rid row
  | Record.Update { table; rid; cols } -> apply.update ~table ~rid cols
  | Record.Delete { table; rid } -> apply.delete ~table ~rid
  | Record.Commit _ | Record.Abort _ | Record.Prepare _ -> ());
  true

(* ------------------------------------------------------------------ *)
(* Batch replay: feed every file, resolve, apply. *)

let replay ?(after = fun _ -> -1) ?decide_in_doubt store apply =
  let files = Walstore.files store in
  let rs = runs ?decide_in_doubt () in
  let records_read = ref 0 in
  let torn_tails = ref 0 in
  let bytes_skipped = ref 0 in
  let corrupt = ref 0 in
  List.iter
    (fun file ->
      let records, stop = Record.decode_all (Walstore.contents store ~file) ~slot:file in
      (match stop.Record.reason with
      | Record.Eof -> ()
      | Record.Torn ->
        incr torn_tails;
        bytes_skipped := !bytes_skipped + stop.Record.bytes_skipped
      | Record.Corrupt ->
        incr corrupt;
        bytes_skipped := !bytes_skipped + stop.Record.bytes_skipped);
      (* The checkpoint frontier must sit on a transaction boundary: the
         snapshot was taken with no transaction active, so the last
         record it covers in each slot is a Commit or Abort. A frontier
         that lands on a data record would make the filter below replay
         that transaction's suffix under the *next* commit — silent
         corruption — so refuse loudly instead. *)
      List.iter
        (fun (r : Record.t) ->
          if Int.equal r.Record.lsn (after r.Record.slot) then
            match r.Record.op with
            | Record.Commit _ | Record.Abort _ -> ()
            | _ ->
              Phoebe_util.Phoebe_error.bug ~subsystem:"recovery"
                "checkpoint frontier slot=%d lsn=%d lands mid-transaction on a data record"
                r.Record.slot r.Record.lsn)
        records;
      let records =
        List.filter (fun (r : Record.t) -> r.Record.lsn > after r.Record.slot) records
      in
      records_read := !records_read + List.length records;
      (* records are already in LSN order within the file *)
      List.iter (feed rs ~file) records)
    files;
  resolve rs;
  drain rs (apply_record apply);
  {
    files_read = List.length files;
    records_read = !records_read;
    committed_txns = rs.committed;
    ops_replayed = rs.applied;
    ops_dropped = rs.dropped;
    torn_tails = !torn_tails;
    bytes_skipped = !bytes_skipped;
    corrupt_records = !corrupt;
    in_doubt = List.rev rs.decided;
  }

let committed_transactions store =
  let commits =
    List.filter_map
      (fun (r : Record.t) ->
        match r.Record.op with Record.Commit { xid; cts } -> Some (xid, cts) | _ -> None)
      (read_all store)
  in
  List.sort (fun (_, a) (_, b) -> Int.compare a b) commits
