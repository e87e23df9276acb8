(* Fixture: the same allocations in an untagged file are clean. *)

let buffer () = Buffer.create 64
let bump l = List.map (fun x -> x + 1) l
