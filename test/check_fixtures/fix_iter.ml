(* Fixture: [hashtbl-iter-mutate] — a Hashtbl.iter closure mutating the
   iterated table, named by path or by field projection. Collecting
   then mutating, and mutating another table, are clean; a line pragma
   suppresses one loop. Raising partials outside recovery code are not
   flagged. *)

let drop_all tbl = Hashtbl.iter (fun k _ -> Hashtbl.remove tbl k) tbl

type t = { locks : (int, int) Hashtbl.t }

let bump t = Hashtbl.iter (fun k v -> Hashtbl.replace t.locks k (v + 1)) t.locks

let collect tbl =
  let dead = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  Hashtbl.iter (fun _ v -> ignore v) tbl;
  List.iter (Hashtbl.remove tbl) dead

let copy src dst = Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

(* lint: allow hashtbl-iter-mutate — fixture: the pragma'd twin *)
let allowed tbl = Hashtbl.iter (fun k _ -> Hashtbl.remove tbl k) tbl

let get tbl k = Hashtbl.find tbl k
