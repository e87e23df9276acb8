(* Fixture: [missing-mli] — a unit under a lib directory without an
   interface. *)

let exposed = 1
