(* Fixture: [random] — a value under Stdlib.Random, bare, through
   [Stdlib] or through a local module alias; a line pragma suppresses
   one use, and a module's own [int] is not Random's. *)

let roll () = Random.int 6
let bits () = Stdlib.Random.bits ()

module R = Random

let aliased () = R.bool ()

(* lint: allow random — fixture: the pragma'd twin *)
let allowed () = Random.int 6

module Dice = struct
  let int n = n - 1
end

let own () = Dice.int 6
