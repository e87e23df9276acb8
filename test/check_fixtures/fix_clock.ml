(* Fixture: [wall-clock] — the three host-clock reads; a line pragma
   suppresses one, and a virtual clock passed in is clean. *)

let now () = Unix.gettimeofday ()
let epoch () = Unix.time ()
let cpu () = Sys.time ()
let allowed () = Sys.time () (* lint: allow wall-clock — fixture *)
let virtual_now clock = clock ()
