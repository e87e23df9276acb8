(* Fixture: every toplevel function of a recovery entry directory is a
   recovery-raise entry point: List.hd and Option.get raise out of
   replay, their _opt forms do not, and a line pragma suppresses a
   checked lookup. *)

let first l = List.hd l
let force o = Option.get o
let first_opt l = List.nth_opt l 0

(* lint: allow recovery-raise — fixture: key presence is checked *)
let checked tbl k = Hashtbl.find tbl k
