(* Fixture: [poly-eq-id] — structural (=) / (<>) where an operand is an
   identifier or field named like an id. Record fields and let bindings
   with such names are not comparisons; Int.equal is clean; a line
   pragma suppresses one use. *)

type entry = { lock_xid : int }
type txn = { xid : int }
type pos = { gsn : int }
type wal = { next_lsn : int; flushed_lsn : int }

let holds entry (txn : txn) = if entry.lock_xid = txn.xid then 1 else 0
let moved a b = a.gsn <> b.gsn
let same_page page_id other = page_id = other
let fresh () = { next_lsn = 0; flushed_lsn = -1 }

let next w =
  let lsn = w.next_lsn in
  lsn + w.flushed_lsn

let typed a b = Int.equal a.gsn b.gsn
let allowed a b = a.gsn = b.gsn (* lint: allow poly-eq-id — fixture *)
