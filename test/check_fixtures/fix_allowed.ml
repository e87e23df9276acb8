(* lint: hot-path *)
(* Fixture: file-scoped pragmas, one per per-site rule, each covering
   one violation below — the file analyzes clean. *)
(* lint: allow random file *)
(* lint: allow wall-clock file *)
(* lint: allow poly-compare file *)
(* lint: allow poly-eq-id file *)
(* lint: allow hashtbl-iter-mutate file *)
(* lint: allow hot-alloc file *)

let roll () = Random.int 6
let cpu () = Sys.time ()
let sort l = List.sort compare l
let same xid other = xid = other
let drop_all tbl = Hashtbl.iter (fun k _ -> Hashtbl.remove tbl k) tbl
let buffer () = Buffer.create 64
