(* Tests for quorum replication with automated failover: group
   convergence, quorum-gated commit visibility, primary-kill view
   change, follower reads under a staleness bound, follower restart
   through the recovery path, what the follower apply path withholds
   (aborted, open, volatile and overlapping runs), in-doubt resolution
   at promotion, and the 100-seed randomized crash-during-replication
   durability property. *)
open Phoebe_core
module Quorum = Phoebe_replication.Quorum
module Value = Phoebe_storage.Value
module Device = Phoebe_io.Device
module Prng = Phoebe_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_rows = Alcotest.(check (list (pair int int)))

let cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 4 }

let ddl db =
  let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true

let kv db = Db.table db "kv"

let dump db =
  let t = kv db in
  Db.with_txn db (fun txn ->
      let acc = ref [] in
      Table.scan t txn (fun _ row ->
          match (row.(0), row.(1)) with
          | Value.Int k, Value.Int v -> acc := (k, v) :: !acc
          | _ -> ());
      List.sort compare !acc)

let insert_kv db k v txn = ignore (Table.insert (kv db) txn [| Value.Int k; Value.Int v |])

let test_convergence () =
  let q = Quorum.create cfg ~ddl in
  let prim = Option.get (Quorum.primary_db q) in
  let acked = ref 0 in
  for k = 1 to 60 do
    Db.submit prim ~on_done:(fun () -> incr acked) (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:60_000_000;
  check_int "every commit quorum-acknowledged" 60 !acked;
  let d = dump prim in
  check_int "primary holds all rows" 60 (List.length d);
  for node = 1 to Quorum.nodes q - 1 do
    check_rows "follower converged" d (dump (Quorum.db q ~node))
  done;
  check_int "both replicas durable to the stream end" (Quorum.stream_len q)
    (min (Quorum.durable_off q ~node:1) (Quorum.durable_off q ~node:2));
  Quorum.shutdown q

(* Commit visibility must be gated on the quorum: with every follower
   partitioned away no commit may be acknowledged, and healing the
   partition releases them all. *)
let test_commit_gated_on_quorum () =
  let q = Quorum.create cfg ~ddl in
  let prim = Option.get (Quorum.primary_db q) in
  Quorum.set_partitioned q ~node:1 true;
  Quorum.set_partitioned q ~node:2 true;
  let acked = ref 0 in
  for k = 1 to 5 do
    Db.submit prim ~on_done:(fun () -> incr acked) (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:5_000_000;
  check_int "no ack without a quorum" 0 !acked;
  Quorum.set_partitioned q ~node:1 false;
  Quorum.set_partitioned q ~node:2 false;
  Quorum.run_for q ~ns:30_000_000;
  check_int "all released once the quorum heals" 5 !acked;
  Quorum.shutdown q

let test_automated_failover () =
  let q = Quorum.create cfg ~ddl in
  let prim0 = Option.get (Quorum.primary_db q) in
  let acked = ref [] in
  for k = 1 to 40 do
    Db.submit prim0 ~on_done:(fun () -> acked := k :: !acked) (insert_kv prim0 k k)
  done;
  Quorum.run_for q ~ns:30_000_000;
  check_bool "some commits acknowledged before the kill" true (!acked <> []);
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:60_000_000;
  let p =
    match Quorum.primary q with
    | Some p -> p
    | None -> Alcotest.fail "no primary elected after the kill"
  in
  check_bool "a follower took over" true (p <> 0);
  check_bool "view advanced" true (Quorum.view q >= 2);
  let pdb = Quorum.db q ~node:p in
  let d = dump pdb in
  List.iter
    (fun k -> check_bool "acknowledged key survived failover" true (List.mem_assoc k d))
    !acked;
  (* the new primary quorum-commits new writes *)
  let acked2 = ref 0 in
  for k = 100 to 110 do
    Db.submit pdb ~on_done:(fun () -> incr acked2) (insert_kv pdb k k)
  done;
  Quorum.run_for q ~ns:40_000_000;
  check_int "writes continue in the new view" 11 !acked2;
  (* and the surviving follower converges onto the new history *)
  let other = if p = 1 then 2 else 1 in
  check_rows "surviving follower converged" (dump pdb) (dump (Quorum.db q ~node:other));
  Quorum.shutdown q

let test_follower_reads_and_staleness () =
  let q = Quorum.create cfg ~ddl in
  let prim = Option.get (Quorum.primary_db q) in
  for k = 1 to 20 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:20_000_000;
  let db1 = Quorum.db q ~node:1 in
  let n =
    Quorum.follower_read q ~node:1 (fun txn ->
        let c = ref 0 in
        Table.scan (kv db1) txn (fun _ _ -> incr c);
        !c)
  in
  check_int "caught-up follower serves the applied state" 20 n;
  check_bool "staleness within the bound" true (Quorum.staleness_ns q ~node:1 <= 5_000_000);
  (* a partitioned follower falls behind the bound and must refuse *)
  Quorum.set_partitioned q ~node:1 true;
  Quorum.run_for q ~ns:10_000_000;
  check_bool "stale follower rejects the read" true
    (try
       Quorum.follower_read q ~node:1 (fun _ -> ());
       false
     with Quorum.Stale_read _ -> true);
  (* an explicit looser bound still serves *)
  let n =
    Quorum.follower_read ~max_staleness_ns:60_000_000 q ~node:1 (fun txn ->
        let c = ref 0 in
        Table.scan (kv db1) txn (fun _ _ -> incr c);
        !c)
  in
  check_int "explicit bound overrides the default" 20 n;
  Quorum.shutdown q

let test_follower_restart () =
  let q = Quorum.create cfg ~ddl in
  let prim = Option.get (Quorum.primary_db q) in
  for k = 1 to 30 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:25_000_000;
  (* restart node 2: volatile stream state is lost, the journaled
     prefix replays through the crash-recovery path *)
  Quorum.restart_follower q ~node:2;
  check_rows "restart recovered the journaled prefix" (dump prim) (dump (Quorum.db q ~node:2));
  for k = 31 to 50 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:30_000_000;
  check_rows "restarted follower re-synced and converged" (dump prim)
    (dump (Quorum.db q ~node:2));
  check_int "re-synced to the stream end" (Quorum.stream_len q) (Quorum.durable_off q ~node:2);
  Quorum.shutdown q

(* The stream reaches every follower: bytes are durable on each mirror
   and each follower's table equals the primary's. *)
let test_shipping_basic_convergence () =
  let q = Quorum.create cfg ~ddl in
  let prim = Option.get (Quorum.primary_db q) in
  for k = 1 to 50 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:20_000_000;
  for node = 1 to Quorum.nodes q - 1 do
    check_bool "bytes shipped" true (Quorum.durable_off q ~node > 0);
    check_rows "follower converged" (dump prim) (dump (Quorum.db q ~node))
  done;
  Quorum.shutdown q

let check_followers_equal q what =
  let d = dump (Option.get (Quorum.primary_db q)) in
  for node = 0 to Quorum.nodes q - 1 do
    if Quorum.is_alive q ~node then check_rows what d (dump (Quorum.db q ~node))
  done

let test_updates_deletes_converge () =
  let q = Quorum.create cfg ~ddl in
  let prim = Option.get (Quorum.primary_db q) in
  let rng = Prng.create ~seed:4 in
  let rids = ref [] in
  for k = 1 to 30 do
    Db.submit prim (fun txn -> rids := Table.insert (kv prim) txn [| Value.Int k; Value.Int 0 |] :: !rids)
  done;
  Quorum.run_for q ~ns:10_000_000;
  for _ = 1 to 100 do
    let rid = List.nth !rids (Prng.int rng (List.length !rids)) in
    if Prng.int rng 10 = 0 then Db.submit prim (fun txn -> ignore (Table.delete (kv prim) txn ~rid))
    else begin
      let v = Prng.int rng 1000 in
      Db.submit prim (fun txn -> ignore (Table.update_with (kv prim) txn ~rid (fun _ -> [ ("v", Value.Int v) ])))
    end
  done;
  Quorum.run_for q ~ns:40_000_000;
  check_followers_equal q "mutations converged";
  Quorum.shutdown q

(* Aborted runs and runs still open on the primary — their records
   flushed and shipped, no decision yet — never reach a follower. A
   commit of a higher row id is held back behind the open run, and the
   follower must not claim freshness meanwhile. *)
let test_uncommitted_withheld () =
  let q = Quorum.create cfg ~ddl in
  let prim = Option.get (Quorum.primary_db q) in
  (try
     Db.with_txn prim (fun txn ->
         insert_kv prim 666 666 txn;
         failwith "abort me")
   with Failure _ -> ());
  Db.with_txn prim (insert_kv prim 1 1);
  (* open on its own slot: a slot runs one transaction at a time *)
  let open_txn =
    Phoebe_txn.Txnmgr.begin_txn (Db.txnmgr prim) ~isolation:cfg.Config.isolation ~slot:1
  in
  insert_kv prim 777 777 open_txn;
  Db.with_txn prim (insert_kv prim 2 2);
  Phoebe_wal.Wal.flush_all (Db.wal prim) ~on_done:(fun () -> ());
  Quorum.run_for q ~ns:20_000_000;
  for node = 1 to Quorum.nodes q - 1 do
    check_rows "only committed rows below the open run" [ (1, 1) ] (dump (Quorum.db q ~node));
    check_bool "held-back follower reports staleness" true
      (Quorum.staleness_ns q ~node > 10_000_000)
  done;
  Quorum.shutdown q

(* Regression: shipping must clamp to the durable WAL. Outside a fiber,
   commit durability waits no-op (loader semantics), so before the
   engine runs every record sits in the WAL buffers' volatile tail —
   exactly what a primary crash loses. Killing the primary at that
   instant must leave every follower, and the new primary, empty. *)
let test_volatile_tail_withheld () =
  let q = Quorum.create cfg ~ddl in
  let prim = Option.get (Quorum.primary_db q) in
  for k = 1 to 10 do
    Db.with_txn prim (insert_kv prim k k)
  done;
  check_int "primary committed locally" 10 (List.length (dump prim));
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:60_000_000;
  check_bool "a follower took over" true (Quorum.primary q <> None);
  for node = 1 to Quorum.nodes q - 1 do
    check_rows "volatile tail never ships" [] (dump (Quorum.db q ~node))
  done;
  Quorum.shutdown q

(* Regression, fault-injected variant: with torn writes, lost and
   delayed flush acks on the WAL and mirror devices, a primary killed
   mid-flight must leave the promoted follower exactly equal to what
   crash recovery reconstructs from its durable journal, with every
   acknowledged transaction present. *)
let test_promote_equals_crash_recovery_under_faults () =
  let faults =
    {
      Device.fault_seed = 17;
      torn_write_p = 0.05;
      lost_ack_p = 0.05;
      delayed_ack_p = 0.1;
      max_delay_ns = 200_000;
    }
  in
  let fcfg = { cfg with Config.faults = Some faults } in
  let q = Quorum.create fcfg ~ddl in
  let prim = Option.get (Quorum.primary_db q) in
  let acked = ref [] in
  for k = 1 to 40 do
    Db.submit prim ~on_done:(fun () -> acked := k :: !acked) (insert_kv prim k k)
  done;
  (* cut over mid-flight: some commits durable, some volatile *)
  Quorum.run_for q ~ns:8_000_000;
  check_bool "some commits acknowledged before the cut" true (!acked <> []);
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:100_000_000;
  let p =
    match Quorum.primary q with
    | Some p -> p
    | None -> Alcotest.fail "no primary elected after the kill"
  in
  let d = dump (Quorum.db q ~node:p) in
  List.iter (fun k -> check_bool "acknowledged key shipped" true (List.mem_assoc k d)) !acked;
  let oracle = Db.create_on (Quorum.engine q) cfg in
  ddl oracle;
  Quorum.replay_durable_prefix q ~node:p ~into:oracle;
  check_rows "promoted == crash-recovery oracle" (dump oracle) d;
  Quorum.shutdown q

(* The primary fails after its commits are acknowledged: the promoted
   follower holds all of them and accepts writes of its own. *)
let test_failover_promote () =
  let q = Quorum.create cfg ~ddl in
  let prim = Option.get (Quorum.primary_db q) in
  for k = 1 to 20 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:10_000_000;
  let before = dump prim in
  check_int "primary committed" 20 (List.length before);
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:60_000_000;
  let pdb =
    match Quorum.primary_db q with
    | Some db -> db
    | None -> Alcotest.fail "no primary elected after the kill"
  in
  check_rows "acknowledged txns survived failover" before (dump pdb);
  let acked = ref false in
  Db.submit pdb ~on_done:(fun () -> acked := true) (insert_kv pdb 999 1);
  Quorum.run_for q ~ns:20_000_000;
  check_bool "promoted follower acknowledges a write" true !acked;
  Db.with_txn pdb (fun txn ->
      match Table.index_lookup_first (kv pdb) txn ~index:"kv_pk" ~key:[ Value.Int 999 ] with
      | Some _ -> ()
      | None -> Alcotest.fail "promoted follower must accept writes");
  Quorum.shutdown q

(* A prepared branch whose decision never arrived is open at
   promotion: it must reach decide_in_doubt with its gxid and be
   applied iff the answer is commit. *)
let test_promote_resolves_in_doubt () =
  List.iter
    (fun decision ->
      let seen = ref (-1) in
      let q =
        Quorum.create cfg ~ddl ~decide_in_doubt:(fun d ->
            seen := d.Phoebe_wal.Recovery.gxid;
            decision)
      in
      let prim = Option.get (Quorum.primary_db q) in
      Db.submit prim (insert_kv prim 1 1);
      Quorum.run_for q ~ns:5_000_000;
      let txn = Db.begin_txn prim in
      insert_kv prim 2 2 txn;
      Phoebe_txn.Txnmgr.prepare (Db.txnmgr prim) txn ~gxid:77 ~coord:1;
      Quorum.run_for q ~ns:5_000_000;
      Quorum.kill q ~node:0;
      Quorum.run_for q ~ns:60_000_000;
      let p = Option.get (Quorum.primary q) in
      check_int "in-doubt branch surfaced with its gxid" 77 !seen;
      check_rows "branch applied iff decided commit"
        (if decision then [ (1, 1); (2, 2) ] else [ (1, 1) ])
        (dump (Quorum.db q ~node:p));
      Quorum.shutdown q)
    [ true; false ]

(* [txns] transactions of [rows] inserts each, submitted [gap_ns] apart;
   returns the acknowledged transaction numbers. *)
let submit_overlapping q (txns, rows, gap_ns) =
  let prim = Option.get (Quorum.primary_db q) in
  let acked = ref [] in
  for i = 0 to txns - 1 do
    Phoebe_sim.Engine.schedule (Quorum.engine q) ~delay:(i * gap_ns) (fun () ->
        Db.submit prim
          ~on_done:(fun () -> acked := i :: !acked)
          (fun txn ->
            for r = 0 to rows - 1 do
              insert_kv prim ((i * 100_000) + r) i txn
            done))
  done;
  acked

(* Overlapping multi-row insert transactions interleave row ids, so a
   transaction can commit rows above ones an undecided transaction has
   already logged. Applying that commit first would leave the lower
   rows "in the past" of the follower's table when they commit. Each
   case is (transactions, rows each, submit gap). *)
let test_overlapping_inserts () =
  List.iter
    (fun ((txns, rows, gap_ns) as shape) ->
      let q = Quorum.create cfg ~ddl in
      let acked = submit_overlapping q shape in
      Quorum.run_for q ~ns:300_000_000;
      let what = Printf.sprintf "%d txns x %d rows, %d ns apart" txns rows gap_ns in
      check_int (what ^ ": all committed") txns (List.length !acked);
      check_int (what ^ ": primary rows") (txns * rows)
        (List.length (dump (Option.get (Quorum.primary_db q))));
      check_followers_equal q (what ^ ": followers equal the primary");
      Quorum.shutdown q)
    [ (2, 500, 1_000_000); (8, 100, 100_000); (16, 50, 50_000); (8, 300, 500_000) ]

(* The primary dies with overlapping inserts in flight: runs it never
   committed end with its view, and the surviving follower must release
   the inserts they held back once it reaches the new view's start —
   before the new primary has written anything. *)
let test_overlapping_inserts_failover () =
  List.iter
    (fun kill_at ->
      let q = Quorum.create cfg ~ddl in
      let acked = submit_overlapping q (8, 100, 100_000) in
      Quorum.run_for q ~ns:kill_at;
      Quorum.kill q ~node:0;
      Quorum.run_for q ~ns:100_000_000;
      let p = Option.get (Quorum.primary q) in
      let d = dump (Quorum.db q ~node:p) in
      List.iter (fun i -> check_bool "acknowledged txn survived" true (List.mem_assoc (i * 100_000) d)) !acked;
      check_rows "surviving follower equals the new primary" d (dump (Quorum.db q ~node:(3 - p)));
      Quorum.shutdown q)
    [ 1_000_000; 2_000_000; 3_000_000; 4_000_000; 6_000_000 ]

(* The failover durability property, randomized over 100 seeds: a
   3-node group with fault-injected WAL and mirror devices and a lossy
   network runs a random workload; the primary is killed at a random
   virtual instant mid-replication. Afterwards: a new primary must be
   elected; every commit whose quorum acknowledgement reached the
   client must be present on it; the promoted state must equal an
   independent crash-recovery replay of its own journal (the oracle);
   and the surviving follower must converge onto the new history. *)
let crash_property seed =
  let faults =
    {
      Device.fault_seed = (seed * 31) + 7;
      torn_write_p = 0.02;
      lost_ack_p = 0.02;
      delayed_ack_p = 0.05;
      max_delay_ns = 200_000;
    }
  in
  let fcfg = { cfg with Config.faults = Some faults } in
  let group = { Quorum.default_config with drop_p = 0.02; net_seed = (seed * 13) + 5 } in
  let q = Quorum.create ~group fcfg ~ddl in
  let rng = Prng.create ~seed in
  let prim = Option.get (Quorum.primary_db q) in
  let acked = ref [] in
  let n_txns = 20 + Prng.int rng 40 in
  for k = 1 to n_txns do
    Db.submit prim ~on_done:(fun () -> acked := k :: !acked) (insert_kv prim k (k * 3))
  done;
  let crash_at = 500_000 + Prng.int rng 20_000_000 in
  Quorum.run_for q ~ns:crash_at;
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:150_000_000;
  (match Quorum.primary q with
  | None -> Alcotest.fail (Printf.sprintf "seed %d: no primary elected" seed)
  | Some p ->
    let pdb = Quorum.db q ~node:p in
    let d = dump pdb in
    List.iter
      (fun k ->
        if not (List.mem_assoc k d) then
          Alcotest.fail
            (Printf.sprintf "seed %d: quorum-acknowledged key %d lost at failover" seed k))
      !acked;
    (* promoted state == independent crash-recovery replay of its journal *)
    let oracle = Db.create_on (Quorum.engine q) cfg in
    ddl oracle;
    Quorum.replay_durable_prefix q ~node:p ~into:oracle;
    if dump oracle <> d then
      Alcotest.fail (Printf.sprintf "seed %d: promoted state diverges from recovery oracle" seed);
    (* the surviving follower converges onto the new primary's history *)
    let other = if p = 1 then 2 else 1 in
    if dump (Quorum.db q ~node:other) <> d then
      Alcotest.fail (Printf.sprintf "seed %d: surviving follower diverged after catch-up" seed));
  Quorum.shutdown q

let test_crash_property_100_seeds () =
  for seed = 1 to 100 do
    crash_property seed
  done

let () =
  Alcotest.run "phoebe_quorum"
    [
      ( "group",
        [
          Alcotest.test_case "convergence" `Quick test_convergence;
          Alcotest.test_case "commit gated on quorum" `Quick test_commit_gated_on_quorum;
          Alcotest.test_case "follower reads and staleness" `Quick
            test_follower_reads_and_staleness;
          Alcotest.test_case "follower restart" `Quick test_follower_restart;
          Alcotest.test_case "overlapping multi-row inserts" `Quick test_overlapping_inserts;
          Alcotest.test_case "overlapping inserts across failover" `Quick
            test_overlapping_inserts_failover;
        ] );
      ( "shipping",
        [
          Alcotest.test_case "basic convergence" `Quick test_shipping_basic_convergence;
          Alcotest.test_case "updates and deletes" `Quick test_updates_deletes_converge;
          Alcotest.test_case "uncommitted withheld" `Quick test_uncommitted_withheld;
          Alcotest.test_case "volatile tail withheld" `Quick test_volatile_tail_withheld;
          Alcotest.test_case "promote == crash recovery under faults" `Quick
            test_promote_equals_crash_recovery_under_faults;
        ] );
      ( "failover",
        [
          Alcotest.test_case "promote" `Quick test_failover_promote;
          Alcotest.test_case "automated failover" `Quick test_automated_failover;
          Alcotest.test_case "promote resolves in-doubt" `Quick test_promote_resolves_in_doubt;
          Alcotest.test_case "primary crash property (100 seeds)" `Slow
            test_crash_property_100_seeds;
        ] );
    ]
