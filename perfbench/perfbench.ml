(* The repository benchmark (see README.md in this directory).

     perfbench.exe --workload <tpcc-hot|tpcc-spill|kv-quorum> --seed <n>
                   --seconds <s> --trace <0|1> [--spans <path>]

   Prints a human-readable table, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. A traced run
   also writes its spans, one JSON object per line, to --spans. Exits 1
   when any correctness check fails. *)

open Meter

let workloads =
  [
    ("tpcc-hot", Tpcc_bench.bench Tpcc_bench.hot);
    ("tpcc-spill", Tpcc_bench.bench Tpcc_bench.spill);
    ("kv-quorum", Kv_bench.bench);
  ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload <tpcc-hot|tpcc-spill|kv-quorum> --seed <n> --seconds <s> --trace <0|1> \
     [--spans <path>]";
  exit 2

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let int_opt key = Option.bind (opt key args) int_of_string_opt in
  let workload, seed, seconds, trace =
    match (opt "--workload" args, int_opt "--seed", int_opt "--seconds", int_opt "--trace") with
    | Some w, Some seed, Some seconds, Some trace when seconds > 0 && (trace = 0 || trace = 1) ->
      (w, seed, seconds, trace = 1)
    | _ -> usage ()
  in
  let bench = match List.assoc_opt workload workloads with Some b -> b | None -> usage () in
  let spans = Spans.create () in
  let o = bench ~seed ~seconds ~trace ~spans in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" workload seed seconds (Bool.to_int trace);
  List.iter (fun (name, value, unit_) -> Printf.printf "  %-28s %s %s\n" name value unit_) o.report;
  let metrics = if trace then o.layers else o.e2e in
  List.iter (fun x -> Printf.printf "  %-36s %18.6f %s\n" x.name x.value x.unit_) metrics;
  (match (trace, opt "--spans" args) with
  | true, Some path ->
    Spans.write spans path;
    Printf.printf "  %d spans written to %s\n" (Spans.count spans) path
  | _ -> ());
  let correct = o.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct o.attempted
    o.failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
          metrics));
  if not correct then exit 1
