(* Fixture: [poly-compare] — references resolving to Stdlib.compare,
   bare or qualified. Typed comparators and a module's own [compare]
   are clean; a line pragma suppresses one use. *)

let sort l = List.sort compare l
let c a b = Stdlib.compare a b
let typed l = List.sort Int.compare l

module Own = struct
  type t = { k : int }

  let compare a b = Int.compare a.k b.k
  let equal a b = compare a b = 0
end

(* lint: allow poly-compare — fixture: the pragma'd twin *)
let allowed l = List.sort compare l
