(* The traced run's per-layer metrics, plus two host-clock timings that
   are reported but not bounded: host CPU per transaction (taken from the
   untraced twin window) and WAL replay time. On a shared 2-vCPU VM their
   run-to-run spread (10-30%) is wider than the widest bound
   BENCHMARK.json allows for an end-to-end metric.

   Every workload reports the same names (BENCHMARK.json's [per_layer]
   list, checked by run.py); a layer a workload does not exercise reports
   0 there — quorum metrics on the single-node TPC-C runs, TPC-C kinds on
   kv-quorum. *)

open Meter
module Recovery = Phoebe_wal.Recovery

type window = {
  before : snapshot;  (** primary registry at the window start *)
  after : snapshot;  (** primary registry at the window end *)
  t_before : int;  (** virtual ns *)
  t_after : int;
  committed : int;  (** transactions / ops committed in the window *)
  writes : int;  (** of which wrote something *)
  queue : Samples.t;  (** submit -> body start, virtual ns *)
  commit : Samples.t;  (** body end -> ack, virtual ns *)
  body : (string * Samples.t) list;  (** body start -> body end, per kind *)
  events : int;  (** engine events processed in the window *)
  minor_words : float;
  major_gcs : int;
}

type quorum = {
  q_before : snapshot;  (** group registry at the window start *)
  q_after : snapshot;
  net_utilization : float;
  mirror_busy_max : float;
  contents_ns : float;  (** host ns of one [Walstore.contents] on the primary's largest WAL file *)
}

let body_kinds = [ "new_order"; "payment"; "order_status"; "delivery"; "stock_level"; "kv_read"; "kv_write" ]
let phase_kinds = [ "new_order"; "payment"; "stock_level"; "kv_read"; "kv_write" ]
let phases = [ "execute"; "lock_wait"; "io_wait"; "wal_flush_wait" ]

let instr_components =
  [ "effective"; "mvcc"; "latching"; "locking"; "buffer"; "wal"; "gc"; "switch"; "cleaner" ]

let us ns = ns /. 1e3

(* A device / scheduler busy fraction restricted to the window: the
   registry's figure covers [0, now] of the instance's engine. *)
let windowed ~before ~after ~t_before ~t_after name =
  let span = float_of_int (t_after - t_before) in
  if span <= 0.0 then 0.0
  else ((num after name *. float_of_int t_after) -. (num before name *. float_of_int t_before)) /. span

let compute (w : window) ~host_us_per_txn ~(recovery : Recovery.report) ~recovery_s ~(quorum : quorum option)
    ~micro ~overhead =
  let d name = delta ~before:w.before ~after:w.after name in
  let per_txn x = ratio x (float_of_int w.committed) in
  let busy = windowed ~before:w.before ~after:w.after ~t_before:w.t_before ~t_after:w.t_after in
  let aborted = d "txn.aborted" in
  let attempts = float_of_int w.committed +. aborted in
  let core =
    [
      m "db.queue_us.p50" "us" (us (Samples.percentile w.queue 0.50));
      m "db.queue_us.p99" "us" (us (Samples.percentile w.queue 0.99));
      m "db.commit_us.p50" "us" (us (Samples.percentile w.commit 0.50));
      m "db.commit_us.p99" "us" (us (Samples.percentile w.commit 0.99));
    ]
    @ List.map
        (fun k ->
          let s = Option.value (List.assoc_opt k w.body) ~default:(Samples.create ()) in
          m ("db.body_us.mean." ^ k) "us" (us (Samples.mean s)))
        body_kinds
  in
  let sim =
    List.map (fun c -> m ("sim.instr." ^ c ^ "_per_txn") "instr" (per_txn (d ("sim.instr." ^ c)))) instr_components
    @ [
        m "sched.busy_fraction" "share" (busy "sched.busy_fraction");
        m "engine.events_per_txn" "count" (per_txn (float_of_int w.events));
      ]
  in
  let trace =
    List.concat_map
      (fun k ->
        List.map
          (fun p ->
            let name = Printf.sprintf "trace.txn.%s.%s_ns" k p in
            m (Printf.sprintf "trace.%s.%s_us.mean" k p) "us"
              (us (delta_mean ~before:w.before ~after:w.after name)))
          phases)
      phase_kinds
  in
  let wal =
    [
      m "wal.records_per_txn" "count" (per_txn (d "wal.records"));
      m "wal.bytes_per_txn" "B" (per_txn (d "wal.bytes"));
      m "wal.rfa_remote_share" "share"
        (ratio (d "wal.rfa.remote_waits") (d "wal.rfa.remote_waits" +. d "wal.rfa.local_commits"));
      m "io.wal.ops_per_batch" "count" (ratio (d "io.wal.write.ops") (d "io.wal.write.batches"));
      m "io.wal.write_ops_per_txn" "count" (per_txn (d "io.wal.write.ops"));
      m "io.wal.busy_fraction" "share" (busy "io.wal.busy_fraction");
      m "recovery_s" "s" recovery_s;
      m "recovery.records_read" "count" (float_of_int recovery.Recovery.records_read);
      m "recovery.ops_replayed" "count" (float_of_int recovery.Recovery.ops_replayed);
      m "host.recovery_ns_per_record" "ns"
        (ratio (recovery_s *. 1e9) (float_of_int recovery.Recovery.records_read));
    ]
  in
  let storage =
    [
      m "io.data.read_ops_per_txn" "count" (per_txn (d "io.data.read.ops"));
      m "io.data.write_ops_per_txn" "count" (per_txn (d "io.data.write.ops"));
      m "io.data.write_bytes_per_txn" "B" (per_txn (d "io.data.write.bytes"));
      m "io.data.pages_per_write_batch" "count" (ratio (d "io.data.write.ops") (d "io.data.write.batches"));
      m "io.data.busy_fraction" "share" (busy "io.data.busy_fraction");
      m "buf.cleaner.pages_per_txn" "count" (per_txn (d "buf.cleaner.pages"));
      m "buf.cleaner.requeued_share" "share"
        (ratio (d "buf.cleaner.requeued") (d "buf.cleaner.pages" +. d "buf.cleaner.requeued"));
      m "buf.dirty_evict_fallbacks" "count" (d "buf.cleaner.dirty_evict_fallbacks");
    ]
  in
  let txn =
    [
      m "txn.abort.deadlock_share" "share" (ratio (d "txn.abort.deadlock") attempts);
      m "txn.abort.conflict_share" "share" (ratio (d "txn.abort.conflict") attempts);
      (* the registry keeps live UNDO bytes (added at write, removed at
         GC), not a running total, so this is the footprint at window end *)
      m "txn.undo_bytes_live" "B" (num w.after "txn.undo_bytes");
    ]
  in
  let replication =
    let qd name =
      match quorum with Some q -> delta ~before:q.q_before ~after:q.q_after name | None -> 0.0
    in
    let per_write x = ratio x (float_of_int w.writes) in
    let get f = match quorum with Some q -> f q | None -> 0.0 in
    [
      m "quorum.ship_msgs_per_write" "count" (per_write (qd "quorum.ship_msgs"));
      m "quorum.acks_per_write" "count" (per_write (qd "quorum.acks"));
      m "quorum.net_bytes_per_write" "B" (per_write (qd "quorum.net_bytes"));
      m "quorum.retransmits" "count" (qd "quorum.retransmits");
      m "quorum.net_utilization" "share" (get (fun q -> q.net_utilization));
      m "io.mirror.busy_fraction.max" "share" (get (fun q -> q.mirror_busy_max));
      m "host.walstore.contents_ns" "ns" (get (fun q -> q.contents_ns));
    ]
  in
  let host =
    [
      m "host_us_per_txn" "us" host_us_per_txn;
      m "host.minor_words_per_txn" "words" (per_txn w.minor_words);
      m "host.major_gcs_per_ktxn" "count" (1000.0 *. per_txn (float_of_int w.major_gcs));
    ]
    @ List.map (fun (name, ns) -> m name "ns" ns) micro
    @ [ m "host.trace_overhead" "ratio" overhead ]
  in
  core @ sim @ trace @ wal @ storage @ txn @ replication @ host
