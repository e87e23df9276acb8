(* Fixture: a hot-path-tagged entry point reaching a closure-capturing
   allocation through a helper — phoebe_check must report
   [hot-path-alloc] with the chain, where the file-scoped [hot-alloc]
   rule sees only the helper's own direct List.map. *)

let helper base xs = List.map (fun x -> x + base) xs

(* lint: hot-path *)
let hot_entry base xs = helper base xs

(* untagged: same body, no finding *)
let cold_entry base xs = helper base xs
