(* lint: allow missing-mli file — fixture: a deliberate exposure *)

let exposed = 1
