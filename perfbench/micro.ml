(* Host-clock micro suite: Bechamel timings of the kernel's public codec,
   visibility and index functions, named [host.<layer>.<op>_ns]. Each
   operation reuses its inputs and scratch buffers, so a timing is the
   operation itself, not the allocation of its arguments. *)

open Bechamel
open Toolkit
module Value = Phoebe_storage.Value
module Pax = Phoebe_storage.Pax
module Frozen = Phoebe_storage.Frozen
module Record = Phoebe_wal.Record
module Clock = Phoebe_txn.Clock
module Undo = Phoebe_txn.Undo
module Mvcc = Phoebe_txn.Mvcc
module Index_tree = Phoebe_btree.Index_tree
module Prng = Phoebe_util.Prng

let schema = Value.Schema.make [ ("k", Value.T_int); ("v", Value.T_str); ("f", Value.T_float) ]
let row i = [| Value.Int i; Value.Str (Printf.sprintf "payload-%d" (i mod 17)); Value.Float 1.5 |]

let tests () =
  let page = Pax.create schema ~capacity:256 in
  for i = 1 to 256 do
    ignore (Pax.append page ~row_id:i (row i))
  done;
  let page_bytes = Pax.encode page in
  let block_bytes = Frozen.encode (Frozen.freeze [ page ]) in
  let record =
    {
      Record.slot = 3;
      lsn = 42;
      gsn = 99;
      op = Record.Update { table = 7; rid = 1234; cols = [| (1, Value.Str "after"); (2, Value.Float 2.5) |] };
    }
  in
  let record_buf = Buffer.create 64 in
  Record.encode record_buf record;
  let record_bytes = Buffer.to_bytes record_buf in
  (* a committed four-version chain, read at a snapshot older than all
     of it: the walk applies every before-image *)
  let xid = Clock.xid_of_start_ts 1000 in
  let chain =
    let rec build i prev =
      if i = 0 then prev
      else begin
        let u =
          Undo.make ~table_id:1 ~rid:1
            ~kind:(Undo.Updated [| (1, Value.Str (Printf.sprintf "v%d" i)) |])
            ~sts:(100 + i) ~xid ~slot:0 ~prev
        in
        u.Undo.ets <- 100 + i + 1;
        build (i - 1) (Some u)
      end
    in
    build 4 None
  in
  let current = row 1 in
  let scratch = Array.copy current in
  let reader = Clock.xid_of_start_ts 7 in
  let index = Index_tree.create ~name:"bench" ~unique:false () in
  for i = 1 to 10_000 do
    Index_tree.insert index ~key:(Index_tree.encode_key [ Value.Int (i mod 1000); Value.Int i ]) ~rid:i
  done;
  let keys = Array.init 1024 (fun i -> Index_tree.encode_key [ Value.Int (i mod 1000); Value.Int 0 ]) in
  let rng = Prng.create ~seed:9 in
  Prng.shuffle rng keys;
  let next_key = ref 0 in
  let crc_input = Bytes.make 1024 'x' in
  [
    ("host.pax.encode_ns", fun () -> ignore (Pax.encode page));
    ("host.pax.decode_ns", fun () -> ignore (Pax.decode page_bytes));
    ("host.frozen.decode_ns", fun () -> ignore (Frozen.decode block_bytes));
    ( "host.record.encode_ns",
      fun () ->
        Buffer.clear record_buf;
        Record.encode record_buf record );
    ("host.record.decode_ns", fun () -> ignore (Record.decode record_bytes 0));
    ( "host.mvcc.visible_walk_ns",
      fun () ->
        Array.blit current 0 scratch 0 (Array.length current);
        ignore
          (Mvcc.visible_version ~xid:reader ~snapshot:1 ~current:scratch ~deleted_in_page:false ~head:chain) );
    ( "host.index.lookup_ns",
      fun () ->
        next_key := (!next_key + 1) land 1023;
        ignore (Index_tree.lookup_first index ~key:keys.(!next_key)) );
    ("host.crc32_1k_ns", fun () -> ignore (Phoebe_util.Crc32.bytes crc_input ~pos:0 ~len:1024));
  ]

(* Name and OLS ns/op estimate of every operation, in suite order. *)
let run () =
  let ops = tests () in
  let suite = List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) ops in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.2) ~stabilize:false () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" suite) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.map
    (fun (name, _) ->
      let est =
        match Hashtbl.find_opt results name with
        | Some r -> ( match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> 0.0)
        | None -> 0.0
      in
      (name, est))
    ops
