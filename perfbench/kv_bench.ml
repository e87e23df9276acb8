(* kv-quorum: open-loop single-row reads and updates against a
   three-node quorum group, on a ladder of Poisson arrival rates. *)

open Phoebe_core
open Meter
module Quorum = Phoebe_replication.Quorum
module Open_loop = Phoebe_workload.Open_loop
module Engine = Phoebe_sim.Engine
module Scheduler = Phoebe_runtime.Scheduler
module Trace = Phoebe_obs.Trace
module Obs = Phoebe_obs.Obs
module Value = Phoebe_storage.Value
module Prng = Phoebe_util.Prng
module Zipf = Phoebe_util.Zipf
module Wal = Phoebe_wal.Wal
module Walstore = Phoebe_io.Walstore
module Recovery = Phoebe_wal.Recovery

let rows = 20_000
let value_len = 100
let load_batch = 500

(* The primary is sized small (2 workers x 4 slots) so the knee of the
   ladder falls at rates the host can simulate in a few seconds. *)
let config = { Config.default with Config.n_workers = 2; slots_per_worker = 4 }

(* Arrival rates (ops/s) in increasing order, each with its length in
   units of [unit_ns_per_s]. Latencies are reported at the nominal rung,
   which runs longest so its percentiles rest on thousands of samples;
   the top rung is past the knee, so what completes there is the group's
   capacity. *)
let ladder = [| (10_000., 1); (20_000., 1); (30_000., 8); (40_000., 1); (50_000., 1); (60_000., 1) |]
let nominal = 2

(* Virtual ns per length unit per second of [--seconds]. *)
let unit_ns_per_s = 4_000_000
let slo_ns = 1_000_000

let ddl db =
  let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_str) ] in
  Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true

let value rng = Value.Str (Prng.alpha_string rng ~min_len:value_len ~max_len:value_len)

let primary q =
  match Quorum.primary_db q with
  | Some db -> db
  | None -> failwith "kv-quorum: the group has no primary"

(* Bulk load, one transaction in flight at a time.

   Known defect: followers raise [Invalid_argument "Table_tree.append_exact:
   row id in the past"] when two multi-row insert transactions overlap on
   the primary (seed 42: 300- or 500-row inserts submitted 1 ms apart
   crash the group; 20 ms apart, or single-row inserts at 40k/s, run
   clean). The cause is the duplicated apply path: [Quorum] applies
   shipped operations in (view, gsn, slot, lsn) order while
   [Recovery.order_ops] applies inserts in (table, rid) order. Until the
   two are one path this loader stays serial; once they are, it should
   load concurrently. *)
let load q =
  let db = primary q in
  let table = Db.table db "kv" in
  let rng = Prng.create ~seed:image_seed in
  let failed = ref 0 in
  let lo = ref 1 in
  while !lo <= rows do
    let first = !lo and last = min rows (!lo + load_batch - 1) in
    let acked = ref false and ok = ref false in
    Db.submit db
      ~on_done:(fun () -> acked := true)
      (fun txn ->
        ok := false;
        for k = first to last do
          ignore (Table.insert table txn [| Value.Int k; value rng |])
        done;
        ok := true);
    while not !acked do
      Quorum.run_for q ~ns:100_000
    done;
    if not !ok then incr failed;
    lo := last + 1
  done;
  !failed

let setup () =
  let q = Quorum.create config ~ddl in
  let failed = load q in
  Option.iter (fun tr -> Trace.set_kind_names tr [| "kv_read"; "kv_write" |]) (Db.trace (primary q));
  (q, failed)

(* ------------------------------------------------------------------ *)
(* The ladder *)

type rung = {
  rate : float;
  t0 : int;
  t1 : int;
  lat : Samples.t array;  (** [|reads; writes|]: due -> ack, virtual ns; failures as [max_int] *)
  inflight0 : int;
  mutable inflight1 : int;
}

type ladder_run = {
  mutable rungs : rung array;
  queue : Samples.t;
  body : Samples.t array;
  commit : Samples.t;
  committed : int array;  (** [|reads; writes|] *)
  mutable top_writes : int;  (** writes acknowledged during the top rung *)
  mutable attempted : int;
  mutable failed : int;
  mutable t_start : int;
  mutable t_end : int;
}

let kind_names = [| "kv_read"; "kv_write" |]

let run_ladder q ~seed ~seconds ~spans =
  let db = primary q in
  let eng = Quorum.engine q in
  let table = Db.table db "kv" in
  let zipf = Zipf.create ~theta:0.99 ~n:rows () in
  let unit_ns = seconds * unit_ns_per_s in
  let r =
    {
      rungs = [||];
      queue = Samples.create ();
      body = [| Samples.create (); Samples.create () |];
      commit = Samples.create ();
      committed = [| 0; 0 |];
      top_writes = 0;
      attempted = 0;
      failed = 0;
      t_start = Engine.now eng;
      t_end = 0;
    }
  in
  let total = Array.fold_left (fun acc (_, len) -> acc + len) 0 ladder in
  let top_end = r.t_start + (total * unit_ns) in
  let top_start = top_end - (snd ladder.(Array.length ladder - 1) * unit_ns) in
  let submit rung ~rng ~on_done =
    let due = Engine.now eng in
    let k = if Prng.bool rng then 1 else 0 in
    let key = Value.Int (Zipf.sample zipf rng + 1) in
    let v = if k = 1 then value rng else Value.Null in
    let op_id = r.attempted in
    r.attempted <- r.attempted + 1;
    let body_start = ref (-1) and body_end = ref (-1) and ok = ref false in
    let finished () =
      let ack = Engine.now eng in
      if !ok then begin
        r.committed.(k) <- r.committed.(k) + 1;
        if k = 1 && ack >= top_start && ack < top_end then r.top_writes <- r.top_writes + 1;
        Samples.add rung.lat.(k) (ack - due);
        Samples.add r.queue (!body_start - due);
        Samples.add r.body.(k) (!body_end - !body_start);
        Samples.add r.commit (ack - !body_end);
        Spans.txn spans ~name:kind_names.(k) ~txn:op_id ~submitted:due ~body_start:!body_start
          ~body_end:!body_end ~ack
      end
      else begin
        r.failed <- r.failed + 1;
        Samples.add rung.lat.(k) max_int
      end;
      on_done ()
    in
    Db.submit db ~on_done:finished (fun txn ->
        if !body_start < 0 then body_start := Engine.now eng;
        ok := false;
        Scheduler.span_kind (k + 1);
        let found =
          match Table.index_lookup_first table txn ~index:"kv_pk" ~key:[ key ] with
          | None -> false
          | Some (rid, _) -> k = 0 || Table.update table txn ~rid [ ("v", v) ]
        in
        body_end := Engine.now eng;
        ok := found)
  in
  let rungs =
    Array.mapi
      (fun i (rate, len) ->
        let step = len * unit_ns in
        let rung =
          {
            rate;
            t0 = Engine.now eng;
            t1 = Engine.now eng + step;
            lat = [| Samples.create (); Samples.create () |];
            inflight0 = Db.inflight db;
            inflight1 = 0;
          }
        in
        ignore
          (Open_loop.start eng ~shape:(Open_loop.Steady rate) ~duration_ns:step ~seed:(seed + (31 * (i + 1)))
             ~submit:(submit rung));
        Quorum.run_for q ~ns:step;
        rung.inflight1 <- Db.inflight db;
        rung)
      ladder
  in
  (* quiesce: let the backlog drain, then give the followers time to
     apply the last pulls *)
  let limit = Engine.now eng + 10_000_000_000 in
  while Db.inflight db > 0 && Engine.now eng < limit do
    Quorum.run_for q ~ns:1_000_000
  done;
  r.t_end <- Engine.now eng;
  r.rungs <- rungs;
  Quorum.run_for q ~ns:20_000_000;
  r

(* Highest rung whose write p99 (failures count as misses) is within the
   SLO and whose backlog did not grow. The backlog is what [Db.inflight]
   holds beyond the task slots: transactions running in a slot come and
   go at any rate, queued ones pile up only past the knee. 0 when no rung
   qualifies. *)
let max_rate_under_slo r =
  let slots = config.Config.n_workers * config.Config.slots_per_worker in
  let backlog n = max 0 (n - slots) in
  Array.fold_left
    (fun best g ->
      if Samples.percentile g.lat.(1) 0.99 <= float_of_int slo_ns && backlog g.inflight1 <= backlog g.inflight0
      then
        Float.max best g.rate
      else best)
    0.0 r.rungs

(* ------------------------------------------------------------------ *)
(* Checks *)

let dump db =
  let table = Db.table db "kv" in
  Db.with_txn db (fun txn ->
      let acc = ref [] in
      Table.scan table txn (fun _ row ->
          match (row.(0), row.(1)) with
          | Value.Int k, Value.Str v -> acc := (k, v) :: !acc
          | _ -> ());
      List.sort compare !acc)

let replay q =
  let db2 = Db.create config in
  ddl db2;
  (db2, Db.replay_wal db2 ~from:(Wal.store (Db.wal (primary q))))

(* Host ns of one [Walstore.contents] on the primary's largest WAL file
   (median of 21): the copy every quorum pull makes of every file. *)
let contents_ns q =
  let store = Wal.store (Db.wal (primary q)) in
  let size f = Bytes.length (Walstore.contents store ~file:f) in
  match Walstore.files store with
  | [] -> 0.0
  | f0 :: rest ->
    let file = List.fold_left (fun best f -> if size f > size best then f else best) f0 rest in
    median
      (List.init 21 (fun _ ->
           let t0 = Spans.host_ns () in
           ignore (Sys.opaque_identity (Walstore.contents store ~file));
           float_of_int (Spans.host_ns () - t0)))

(* ------------------------------------------------------------------ *)

type run = {
  setup_s : float list;
  load_failed : int;
  ladder : ladder_run;
  host_us : float;  (** host CPU µs per committed op, ladder and drain *)
  layer_window : Layers.window;
  quorum : Layers.quorum;
  recovery : Recovery.report option;
  recovery_s : float list;
  checks : (string * bool) list;
}

let run_once ~seed ~seconds ~setups ~replays ~spans =
  let (q, load_failed), setup_s =
    repeat ~n:setups ~release:(fun (q, _) -> Quorum.shutdown q) (fun () -> Spans.phase spans ~name:"setup" setup)
  in
  let db = primary q in
  let eng = Quorum.engine q in
  let before = Obs.snapshot (Db.obs db) in
  let q_before = Obs.snapshot (Quorum.obs q) in
  let events0 = Engine.processed eng in
  let gc0 = Gc.quick_stat () in
  let ladder, host_s =
    Spans.phase spans ~name:"window" (fun () -> timed (fun () -> run_ladder q ~seed ~seconds ~spans))
  in
  let gc1 = Gc.quick_stat () in
  let events = Engine.processed eng - events0 in
  let after = Obs.snapshot (Db.obs db) in
  let quorum =
    {
      Layers.q_before;
      q_after = Obs.snapshot (Quorum.obs q);
      net_utilization = Quorum.net_utilization q;
      mirror_busy_max =
        List.fold_left
          (fun acc node -> Float.max acc (Quorum.mirror_utilization q ~node))
          0.0
          (List.init (Quorum.nodes q) Fun.id);
      contents_ns = contents_ns q;
    }
  in
  let layer_window =
    {
      Layers.before;
      after;
      t_before = ladder.t_start;
      t_after = ladder.t_end;
      committed = ladder.committed.(0) + ladder.committed.(1);
      writes = ladder.committed.(1);
      queue = ladder.queue;
      commit = ladder.commit;
      body = [ ("kv_read", ladder.body.(0)); ("kv_write", ladder.body.(1)) ];
      events;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    }
  in
  let checks =
    Spans.phase spans ~name:"follower_checks" (fun () ->
        let primary_rows = dump db in
        ("primary holds every loaded key", List.length primary_rows = rows)
        :: List.init (Quorum.nodes q - 1) (fun i ->
               let node = i + 1 in
               (Printf.sprintf "follower %d equals the primary" node, dump (Quorum.db q ~node) = primary_rows)))
  in
  let recovery, recovery_s, replay_checks =
    if replays = 0 then (None, [], [])
    else begin
      let (db2, report), times = repeat ~n:replays (fun () -> Spans.phase spans ~name:"replay" (fun () -> replay q)) in
      let same = Spans.phase spans ~name:"replay_checks" (fun () -> dump db2 = dump db) in
      (Some report, times, [ ("replayed instance equals the primary", same) ])
    end
  in
  Quorum.shutdown q;
  let host_us = host_s *. 1e6 /. float_of_int layer_window.Layers.committed in
  { setup_s; load_failed; ladder; host_us; layer_window; quorum; recovery; recovery_s; checks = checks @ replay_checks }

let us ns = ns /. 1e3

let outcome_of r ~layers =
  let l = r.ladder in
  let nom = l.rungs.(nominal) in
  let top = l.rungs.(Array.length l.rungs - 1) in
  let committed = l.committed.(0) + l.committed.(1) in
  let failed_checks = List.length (List.filter (fun (_, ok) -> not ok) r.checks) in
  let attempted = l.attempted + List.length r.checks in
  let failed = l.failed + r.load_failed + failed_checks in
  let p k q = us (Samples.percentile nom.lat.(k) q) in
  let e2e =
    [
      m "tpmc" "1/min" (float_of_int l.top_writes *. 60e9 /. float_of_int (top.t1 - top.t0));
      m "write_p50_us" "us" (p 1 0.50);
      m "write_p99_us" "us" (p 1 0.99);
      m "read_p99_us" "us" (p 0 0.99);
      m "setup_s" "s" (median r.setup_s);
      m "heap_peak_mb" "MB" (heap_peak_mb ());
    ]
  in
  let f = Printf.sprintf "%.3f" in
  let report =
    [
      ("max_rate_under_slo", Printf.sprintf "%.0f" (max_rate_under_slo l), "ops/s");
      ("write_p50_us", f (p 1 0.50) ^ Printf.sprintf " (n=%d, at %.0f ops/s)" (Samples.count nom.lat.(1)) nom.rate, "us");
      ("write_p99_us", f (p 1 0.99), "us");
      ("read_p99_us", f (p 0 0.99) ^ Printf.sprintf " (n=%d)" (Samples.count nom.lat.(0)), "us");
      ("failed_share", f (ratio (float_of_int failed) (float_of_int attempted)), "share");
      ("host_us_per_txn", f r.host_us, "us");
      ("recovery_s", f (median r.recovery_s) ^ Printf.sprintf " (median of %d)" (List.length r.recovery_s), "s");
      ( "sizes",
        Printf.sprintf "%d rows x %d-byte values, Zipf 0.99, 3 nodes, primary %d workers x %d slots" rows value_len
          config.Config.n_workers config.Config.slots_per_worker,
        "" );
      ("window", Printf.sprintf "%.3f virtual s, %d committed (%d reads, %d writes)" (float_of_int (l.t_end - l.t_start) /. 1e9) committed l.committed.(0) l.committed.(1), "");
    ]
    @ Array.to_list
        (Array.map
           (fun g ->
             ( Printf.sprintf "rung %.0f ops/s" g.rate,
               Printf.sprintf "write p99 %s us (n=%d), read p99 %s us, inflight %d -> %d"
                 (f (us (Samples.percentile g.lat.(1) 0.99)))
                 (Samples.count g.lat.(1))
                 (f (us (Samples.percentile g.lat.(0) 0.99)))
                 g.inflight0 g.inflight1,
               "" ))
           l.rungs)
    @ List.map (fun (name, ok) -> ("check " ^ name, (if ok then "ok" else "FAILED"), "")) r.checks
  in
  { attempted; failed; e2e; layers; report }

let bench ~seed ~seconds ~trace ~spans =
  if not trace then outcome_of (run_once ~seed ~seconds ~setups:3 ~replays:1 ~spans) ~layers:[]
  else begin
    let plain = run_once ~seed ~seconds ~setups:1 ~replays:0 ~spans:(Spans.create ()) in
    spans.Spans.enabled <- true;
    let r = run_once ~seed ~seconds ~setups:1 ~replays:3 ~spans in
    let micro = Spans.phase spans ~name:"micro" Micro.run in
    let layers =
      Layers.compute r.layer_window ~host_us_per_txn:plain.host_us ~recovery:(Option.get r.recovery)
        ~recovery_s:(median r.recovery_s)
        ~quorum:(Some r.quorum) ~micro
        ~overhead:(r.host_us /. plain.host_us)
    in
    outcome_of r ~layers
  end
