(* Fixture: a file-scoped pragma covers every use in the file. *)
(* lint: allow poly-compare file *)

let a = compare 1 2
let b = compare 3 4
