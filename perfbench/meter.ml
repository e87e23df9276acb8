(* Measurement plumbing shared by every workload: the host clock, exact
   percentiles over per-transaction samples, registry snapshot
   arithmetic, and the bench-side span recorder of the traced run.

   Two clocks. Virtual-clock quantities come from the simulation and are
   exact for a given seed. Host-clock quantities are process CPU time
   (user + sys): the simulator is one OS thread, so CPU time is the
   program's own work and leaves out time the scheduler gave to other
   processes. *)

module Obs = Phoebe_obs.Obs

(* Seed of the initial database image (load, plus warm-up where a
   workload has one). The image is the same for every run, like a
   restored backup; [--seed] drives only the measured window's inputs.
   A seed-dependent image would change how long warm-up takes and how
   much the heap holds, and host-clock metrics would vary by seed as
   much as by machine. *)
let image_seed = 42

let host_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()] and the host CPU seconds it took. *)
let timed f =
  let t0 = host_s () in
  let r = f () in
  (r, host_s () -. t0)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Run [f] [n] times, each after a heap compaction so every run starts
   from the same heap shape; [release] drops each result but the last.
   Returns the last result and each run's host seconds. *)
let repeat ~n ?(release = ignore) f =
  let last = ref None and times = ref [] in
  for _ = 1 to n do
    Option.iter release !last;
    last := None;
    Gc.compact ();
    let r, dt = timed f in
    times := dt :: !times;
    last := Some r
  done;
  (Option.get !last, !times)

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Exact percentiles *)

module Samples = struct
  type t = { mutable data : int array; mutable n : int }

  let create () = { data = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest rank: the smallest sample with at least [p] of the samples
     at or below it. 0 for an empty set. *)
  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort Int.compare a;
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
      float_of_int a.(max 0 (min (t.n - 1) (rank - 1)))
    end

  let mean t =
    if t.n = 0 then 0.0
    else begin
      let s = ref 0 in
      for i = 0 to t.n - 1 do
        s := !s + t.data.(i)
      done;
      float_of_int !s /. float_of_int t.n
    end
end

(* ------------------------------------------------------------------ *)
(* Registry snapshots *)

type snapshot = (string * Obs.value) list

let num (s : snapshot) name =
  match List.assoc_opt name s with
  | Some (Obs.Int i) -> float_of_int i
  | Some (Obs.Float f) -> f
  | Some (Obs.Stat { sum; _ }) | Some (Obs.Hist { sum; _ }) -> sum
  | _ -> 0.0

(* Sample count of a histogram / scalar metric (0 when absent). *)
let count (s : snapshot) name =
  match List.assoc_opt name s with
  | Some (Obs.Stat { count; _ }) | Some (Obs.Hist { count; _ }) -> float_of_int count
  | _ -> 0.0

(* Growth of a counter (or of a histogram's sum) between two snapshots. *)
let delta ~before ~after name = num after name -. num before name

(* Mean of the histogram samples added between two snapshots. *)
let delta_mean ~before ~after name =
  let n = count after name -. count before name in
  if n <= 0.0 then 0.0 else delta ~before ~after name /. n

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Bench-side spans (traced run only)

   Kept in flat arrays while the run goes, written out once at exit. A
   span has a name, the clock its times are on ("v" virtual ns, "h" host
   ns of CPU time), a parent span id (-1 for none) and the transaction
   it belongs to (-1 for phase spans). *)

module Spans = struct
  type t = {
    mutable enabled : bool;
    mutable names : string array;
    mutable clock : Bytes.t;
    mutable ints : int array; (* start, end, parent, txn *)
    mutable n : int;
  }

  let create () = { enabled = false; names = [||]; clock = Bytes.empty; ints = [||]; n = 0 }

  let grow t =
    let cap = max 4096 (2 * t.n) in
    let names = Array.make cap "" in
    Array.blit t.names 0 names 0 t.n;
    let clock = Bytes.make cap 'v' in
    Bytes.blit t.clock 0 clock 0 t.n;
    let ints = Array.make (4 * cap) 0 in
    Array.blit t.ints 0 ints 0 (4 * t.n);
    t.names <- names;
    t.clock <- clock;
    t.ints <- ints

  (* Record a span and return its id (-1 when recording is off). *)
  let add t ~name ~clock ~start ~stop ~parent ~txn =
    if not t.enabled then -1
    else begin
      if t.n = Array.length t.names then grow t;
      let i = t.n in
      t.names.(i) <- name;
      Bytes.set t.clock i clock;
      t.ints.(4 * i) <- start;
      t.ints.((4 * i) + 1) <- stop;
      t.ints.((4 * i) + 2) <- parent;
      t.ints.((4 * i) + 3) <- txn;
      t.n <- i + 1;
      i
    end

  (* One transaction: a span named after its kind from submit (or due
     time) to ack, with children queue, body and commit. *)
  let txn t ~name ~txn ~submitted ~body_start ~body_end ~ack =
    let parent = add t ~name ~clock:'v' ~start:submitted ~stop:ack ~parent:(-1) ~txn in
    if parent >= 0 then begin
      ignore (add t ~name:"queue" ~clock:'v' ~start:submitted ~stop:body_start ~parent ~txn);
      ignore (add t ~name:"body" ~clock:'v' ~start:body_start ~stop:body_end ~parent ~txn);
      ignore (add t ~name:"commit" ~clock:'v' ~start:body_end ~stop:ack ~parent ~txn)
    end

  let host_ns () = int_of_float (host_s () *. 1e9)

  (* A host-clock phase span around [f ()]. *)
  let phase t ~name f =
    let start = host_ns () in
    let r = f () in
    ignore (add t ~name ~clock:'h' ~start ~stop:(host_ns ()) ~parent:(-1) ~txn:(-1));
    r

  let count t = t.n

  (* One JSON object per line: {"id","name","clock","start","end","parent","txn"}. *)
  let write t path =
    let oc = open_out path in
    for i = 0 to t.n - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"clock\":\"%c\",\"start\":%d,\"end\":%d,\"parent\":%d,\"txn\":%d}\n" i
        t.names.(i) (Bytes.get t.clock i)
        t.ints.(4 * i)
        t.ints.((4 * i) + 1)
        t.ints.((4 * i) + 2)
        t.ints.((4 * i) + 3)
    done;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Result *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;  (** transactions / ops offered in the measured window plus checks run *)
  failed : int;  (** attempts that did not commit (TPC-C's mandated rollback excluded) plus failed checks *)
  e2e : metric list;  (** the untraced run's end-to-end metrics *)
  layers : metric list;  (** the traced run's per-layer metrics *)
  report : (string * string * string) list;  (** extra (name, value, unit) lines for the human-readable table *)
}
