(* Fixture: the same unit with an interface is clean. *)

let exposed = 1
