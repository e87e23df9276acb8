(* Static-analyzer tests: each rule family must fire by name on the
   seeded fixtures in test/check_fixtures (with call-chain witnesses and
   the documented exemptions), every fixture file must carry exactly its
   expected multiset of rule names (pragma'd twins suppressed), the
   pragma scanner must honor pragmas only inside comments, the shipped
   lib/ tree must analyze clean,
   the rendered report must be byte-identical across runs, and the
   runtime sanitizer's observed lock-order class edges from a sanitized
   TPC-C run must be a subset of the static acquisition-order graph. *)
open Phoebe_core
module Check = Phoebe_check.Check
module Report = Phoebe_check.Report
module Pragma = Phoebe_check.Pragma
module Sanitize = Phoebe_sanitize.Sanitize
module Latch = Phoebe_storage.Latch
module T = Phoebe_tpcc.Tpcc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Tests run from _build/default/test; the kernel cmts live under
   ../lib and the fixture cmts under the fixture library's .objs dir.
   The fixture analysis must include the lib cmts: alias-unit roots
   (Phoebe_storage, ...) are what let the extractor resolve the
   fixtures' Latch/Scheduler calls to the latch specials. *)
let lib_cmts = "../lib"
let fixture_cmts = "check_fixtures/.check_fixtures.objs/byte"
let src_root = ".."

let require_dir d =
  if not (Sys.file_exists d && Sys.is_directory d) then
    Alcotest.failf "cmt directory %s not found (cwd %s); build the tree first" d (Sys.getcwd ())

let analyze_fixtures ?(recovery_units = [ "Fix_raise" ]) () =
  require_dir lib_cmts;
  require_dir fixture_cmts;
  Check.analyze { Check.cmt_dirs = [ lib_cmts; fixture_cmts ]; src_root; recovery_units }

let analyze_lib () =
  require_dir lib_cmts;
  Check.analyze { Check.default_config with Check.cmt_dirs = [ lib_cmts ]; src_root }

let with_rule r rule = List.filter (fun (f : Report.finding) -> f.Report.rule = rule) r.Check.findings

(* ------------------------------------------------------------------ *)
(* Each rule family fires by name on its fixture *)

let test_park_while_latched_fixture () =
  let r = analyze_fixtures () in
  match with_rule r "park-while-latched" with
  | [ f ] ->
    check_bool "sited in fix_park.ml" true (contains f.Report.file "fix_park.ml");
    (* the full call chain is the witness; the parking leaf and the
       latched caller must both be named *)
    check_bool "witness names the parking function" true (contains f.Report.msg "wait_for_signal");
    check_bool "witness names the latched entry" true (contains f.Report.msg "Fix_park.update")
  | fs ->
    (* exactly one: fault_under_latch suspends via Scheduler.io_wait,
       which is exempt by design *)
    Alcotest.failf "expected exactly one park-while-latched finding, got %d" (List.length fs)

let test_latch_order_cycle_fixture () =
  let r = analyze_fixtures () in
  match with_rule r "latch-order-cycle" with
  | [ f ] ->
    check_bool "cycle names fix_order.la" true (contains f.Report.msg "fix_order.la");
    check_bool "cycle names fix_order.lb" true (contains f.Report.msg "fix_order.lb");
    check_bool "forward witness recorded" true (contains f.Report.msg "a_then_b");
    check_bool "backward witness recorded" true (contains f.Report.msg "b_then_a")
  | fs -> Alcotest.failf "expected exactly one latch-order-cycle finding, got %d" (List.length fs)

let test_hot_path_alloc_fixture () =
  let r = analyze_fixtures () in
  let hot = with_rule r "hot-path-alloc" in
  check_bool "hot-path-alloc fired" true (hot <> []);
  List.iter
    (fun (f : Report.finding) ->
      check_bool "sited in fix_hot.ml" true (contains f.Report.file "fix_hot.ml");
      (* only the tagged entry point is hot: cold_entry allocates the
         same way and must stay clean *)
      check_bool "chain starts at the tagged entry" true (contains f.Report.msg "Fix_hot.hot_entry");
      check_bool "chain reaches the allocating helper" true (contains f.Report.msg "helper"))
    hot

let test_recovery_raise_fixture () =
  let r = analyze_fixtures () in
  let raises = with_rule r "recovery-raise" in
  check_bool "recovery-raise fired" true (raises <> []);
  List.iter
    (fun (f : Report.finding) ->
      check_bool "sited in fix_raise.ml" true (contains f.Report.file "fix_raise.ml");
      check_bool "names the raising partial" true (contains f.Report.msg "Hashtbl.find");
      check_bool "the _opt path stays clean" false (contains f.Report.msg "resolve_opt"))
    raises;
  (* both the direct site and the chain through [lookup] are reported *)
  check_bool "direct and transitive entry points both reported" true (List.length raises >= 2)

let test_fixture_findings_confined () =
  let r = analyze_fixtures () in
  List.iter
    (fun (f : Report.finding) ->
      if f.Report.file = "<order-graph>" then
        check_bool "order-graph finding is the fixture cycle" true (contains f.Report.msg "fix_order")
      else
        check_bool
          (Printf.sprintf "finding outside fixtures: %s:%d %s" f.Report.file f.Report.line
             f.Report.rule)
          true
          (contains f.Report.file "check_fixtures"))
    r.Check.findings

(* Every fixture file against its expected rule multiset. Each per-site
   rule's fixture also holds a pragma'd twin of one violation, and
   fix_allowed.ml / fix_compare_file.ml / lib/fix_nomli_allowed.ml are
   covered by file-scoped pragmas, so a count here also proves the
   pragmas suppress. replay/ is named as a recovery entry directory,
   Fix_raise as a recovery entry unit. *)
let fixture_table =
  [
    ("fix_random.ml", [ "random"; "random"; "random" ]);
    ("fix_clock.ml", [ "wall-clock"; "wall-clock"; "wall-clock" ]);
    ("fix_compare.ml", [ "poly-compare"; "poly-compare" ]);
    ("fix_compare_file.ml", []);
    ("fix_eq_id.ml", [ "poly-eq-id"; "poly-eq-id"; "poly-eq-id" ]);
    ("fix_iter.ml", [ "hashtbl-iter-mutate"; "hashtbl-iter-mutate" ]);
    ("fix_hot_alloc.ml", [ "hot-alloc"; "hot-alloc"; "hot-alloc"; "hot-alloc"; "hot-alloc" ]);
    ("fix_cold_alloc.ml", []);
    ("fix_allowed.ml", []);
    ("lib/fix_nomli.ml", [ "missing-mli" ]);
    ("lib/fix_mli.ml", []);
    ("lib/fix_nomli_allowed.ml", []);
    ("replay/fix_partials.ml", [ "recovery-raise"; "recovery-raise" ]);
    ("fix_raise.ml", [ "recovery-raise"; "recovery-raise" ]);
    ("fix_hot.ml", [ "hot-alloc"; "hot-path-alloc"; "hot-path-alloc" ]);
    ("fix_park.ml", [ "park-while-latched" ]);
    ("fix_order.ml", []);
    ("<order-graph>", [ "latch-order-cycle" ]);
  ]

let test_fixture_table () =
  let r =
    analyze_fixtures ~recovery_units:[ "Fix_raise"; "test/check_fixtures/replay" ] ()
  in
  let key file =
    let p = "test/check_fixtures/" in
    if String.starts_with ~prefix:p file then
      String.sub file (String.length p) (String.length file - String.length p)
    else file
  in
  List.iter
    (fun (f : Report.finding) ->
      if not (List.mem_assoc (key f.Report.file) fixture_table) then
        Alcotest.failf "finding in a file outside the table: %s" (Report.render_finding f))
    r.Check.findings;
  List.iter
    (fun (file, expected) ->
      let got =
        List.filter_map
          (fun (f : Report.finding) ->
            if String.equal (key f.Report.file) file then Some f.Report.rule else None)
          r.Check.findings
      in
      Alcotest.(check (list string))
        (file ^ " rule multiset")
        (List.sort String.compare expected)
        (List.sort String.compare got))
    fixture_table

(* The pragma scanner: (source, (rule, line, suppressed) queries, file
   carries a hot-path tag). *)
let pragma_table =
  [
    ( "line pragma covers its line and the next",
      "let x = 1 (* lint: allow random *)\nlet y = 2\nlet z = 3\n",
      [ ("random", 1, true); ("random", 2, true); ("random", 3, false); ("wall-clock", 1, false) ],
      false );
    ( "file pragma covers every line",
      "(* lint: allow poly-compare file *)\nlet a = 1\n",
      [ ("poly-compare", 40, true); ("random", 2, false) ],
      false );
    ( "pragma in a plain string is not honored",
      "let s = \"lint: allow random file\"\nlet roll () = 0\n",
      [ ("random", 1, false); ("random", 2, false) ],
      false );
    ( "pragma in a quoted string is not honored",
      "let s = {|lint: allow random file|}\nlet t = {id|lint: allow random|id}\n",
      [ ("random", 1, false); ("random", 2, false) ],
      false );
    ("hot tag in a comment", "(* lint: hot-path *)\nlet f () = ()\n", [], true);
    ("hot tag in a string is not honored", "let s = \"lint: hot-path\"\n", [], false);
    ( "two pragmas on one line",
      "let f () = () (* lint: allow hot-alloc — a *) (* lint: allow random — b *)\n",
      [ ("hot-alloc", 1, true); ("random", 1, true); ("poly-compare", 1, false) ],
      false );
    ( "scope words stop at the next marker",
      "(* lint: allow hot-alloc lint: allow random file *)\nlet a = 1\n\nlet b = 2\n",
      [ ("hot-alloc", 4, false); ("random", 4, true) ],
      false );
    ( "a \"*)\" string inside a comment does not close it",
      "(* let s = \"*)\" in lint: allow random *)\nlet x = 1\n",
      [ ("random", 1, true) ],
      false );
    ( "nested comments balance",
      "(* outer (* inner *) lint: allow random *)\nlet s = \"(* lint: allow wall-clock *)\"\n",
      [ ("random", 1, true); ("wall-clock", 2, false) ],
      false );
  ]

let test_pragma_table () =
  List.iter
    (fun (name, src, queries, hot) ->
      let t = Pragma.of_source src in
      List.iter
        (fun (rule, line, expected) ->
          check_bool (Printf.sprintf "%s: %s at line %d" name rule line) expected
            (Pragma.allowed t ~rule ~line))
        queries;
      check_bool (name ^ ": hot-path tag") hot (Pragma.is_hot_file t))
    pragma_table

(* ------------------------------------------------------------------ *)
(* Shipped tree is clean; report is deterministic *)

let test_lib_tree_clean () =
  let r = analyze_lib () in
  check_bool "analyzer saw the whole kernel" true (r.Check.n_units >= 50);
  check_bool "analyzer extracted definitions" true (r.Check.n_defs >= 500);
  (match r.Check.findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "lib/ must analyze clean; first finding: %s" (Report.render_finding f));
  check_int "zero findings on the shipped tree" 0 (List.length r.Check.findings)

let test_report_deterministic () =
  let r1 = analyze_fixtures () in
  let r2 = analyze_fixtures () in
  Alcotest.(check string) "rendered report is byte-identical across runs" r1.Check.rendered
    r2.Check.rendered;
  check_bool "report is non-trivial" true (String.length r1.Check.rendered > 0)

(* ------------------------------------------------------------------ *)
(* Cross-validation against the runtime sanitizer: every lock-order
   class edge the sanitizer observes during execution must already be
   in the static graph (the static graph is a superset — it covers
   paths the schedule never took). *)

let tiny_scale =
  {
    T.districts_per_warehouse = 2;
    customers_per_district = 15;
    items = 80;
    initial_orders_per_district = 8;
  }

let test_observed_edges_subset_of_static () =
  Fun.protect ~finally:(fun () -> Sanitize.disable ()) @@ fun () ->
  let cfg =
    { Config.default with Config.n_workers = 2; slots_per_worker = 4; sanitize = true }
  in
  let db = Db.create cfg in
  let t = T.load db ~warehouses:1 ~scale:tiny_scale ~seed:11 () in
  let r = T.run_mix t ~concurrency:4 ~duration_ns:100_000_000 ~seed:5 () in
  check_bool "sanitized run commits transactions" true (r.T.total_committed > 20);
  (* seed one classed nested acquisition so the subset check is not
     vacuously over an empty observed set; its classes come from the
     fixture tree, whose static graph carries the edge in both
     directions (that is the seeded cycle) *)
  let la = Latch.create () and lb = Latch.create () in
  Latch.set_class la "fix_order.la";
  Latch.set_class lb "fix_order.lb";
  Latch.acquire_exclusive la;
  Latch.acquire_exclusive lb;
  Latch.release_exclusive lb;
  Latch.release_exclusive la;
  let observed = Sanitize.order_class_edges () in
  check_bool "observed set carries the seeded classed edge" true
    (List.mem ("fix_order.la", "fix_order.lb") observed);
  let static = (analyze_fixtures ()).Check.order_edges in
  List.iter
    (fun (a, b) ->
      check_bool
        (Printf.sprintf "observed edge %s -> %s is in the static graph" a b)
        true
        (List.mem (a, b) static))
    observed

let () =
  Alcotest.run "check"
    [
      ( "check",
        [
          Alcotest.test_case "park-while-latched fires on fixture" `Quick
            test_park_while_latched_fixture;
          Alcotest.test_case "latch-order-cycle fires on fixture" `Quick
            test_latch_order_cycle_fixture;
          Alcotest.test_case "hot-path-alloc fires on fixture" `Quick test_hot_path_alloc_fixture;
          Alcotest.test_case "recovery-raise fires on fixture" `Quick test_recovery_raise_fixture;
          Alcotest.test_case "fixture findings confined to fixtures" `Quick
            test_fixture_findings_confined;
          Alcotest.test_case "fixture rule multisets" `Quick test_fixture_table;
          Alcotest.test_case "pragma scanner" `Quick test_pragma_table;
          Alcotest.test_case "shipped lib tree analyzes clean" `Quick test_lib_tree_clean;
          Alcotest.test_case "report byte-identical across runs" `Quick test_report_deterministic;
          Alcotest.test_case "observed lock-order edges subset of static" `Quick
            test_observed_edges_subset_of_static;
        ] );
    ]
