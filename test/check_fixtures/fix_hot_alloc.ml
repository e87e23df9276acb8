(* lint: hot-path *)
(* Fixture: [hot-alloc] — the tag above makes the whole file hot, so
   each direct allocation primitive and a List.map over a closure is a
   finding; List.map over a named function is clean, and a line pragma
   covers cold setup. The tag sits more than two lines above the first
   definition, so no definition is a hot-path-alloc entry point. *)

let buffer () = Buffer.create 64
let bytes () = Bytes.create 8
let array n = Array.make n 0
let show x = Printf.sprintf "%d" x
let bump l = List.map (fun x -> x + 1) l
let named l = List.map succ l

let setup () =
  (* lint: allow hot-alloc — cold setup *)
  Buffer.create 64
