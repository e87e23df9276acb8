(* Per-site rules: one Tast_iterator pass over each unit's typed AST.
   Unlike the reachability rules (lattice.ml), each of these judges a
   single expression — or, for missing-mli, a single unit — so names
   resolve through the type checker's paths rather than through tokens:
   a local [compare] is not [Stdlib.compare], and a string or comment
   that mentions [Random.int] is not an expression at all. Paths are
   compared in Extract.normalize's short form ("Hashtbl.iter",
   "Stdlib.compare"). *)

open Typedtree

let id_suffixes = [ "xid"; "lsn"; "gsn"; "page_id" ]
let clock_reads = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]
let hot_allocs = [ "Buffer.create"; "Bytes.create"; "Array.make"; "Printf.sprintf" ]
let table_mutators = [ "Hashtbl.remove"; "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.reset" ]
let mem name l = List.exists (String.equal name) l

let rec alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

(* The path or field projection an expression names, e.g. "t.locks". *)
let rec subject e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (Path.name p)
  | Texp_field (e, _, lbl) -> Option.map (fun s -> s ^ "." ^ lbl.Types.lbl_name) (subject e)
  | _ -> None

(* An id-equality operand: an identifier or field named like an id. *)
let id_like e =
  let name =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some (Path.last p)
    | Texp_field (_, _, lbl) -> Some lbl.Types.lbl_name
    | _ -> None
  in
  match name with
  | Some n when List.exists (fun s -> String.ends_with ~suffix:s n) id_suffixes -> Some n
  | _ -> None

let is_closure e = match e.exp_desc with Texp_function _ -> true | _ -> false
let in_lib source = List.mem "lib" (String.split_on_char '/' (Filename.dirname source))

let unit_findings ~lib_roots ~hot (u : Loader.unit_info) =
  let out = ref [] in
  let add_at line rule msg =
    out := { Report.rule; file = u.Loader.source; line; extra = []; msg } :: !out
  in
  let add rule (loc : Location.t) msg = add_at loc.Location.loc_start.Lexing.pos_lnum rule msg in
  let aliases = Hashtbl.create 8 in
  let normalize p = Extract.normalize ~lib_roots ~aliases (Path.name p) in
  let callee e = match e.exp_desc with Texp_ident (p, _, _) -> normalize p | _ -> "" in
  (* Hashtbl.remove/replace/add/reset on [target] anywhere in [body] *)
  let mutations ~target body =
    let found = ref [] in
    let expr it e =
      (match e.exp_desc with
      | Texp_apply (fn, (_, Some tbl) :: _)
        when mem (callee fn) table_mutators
             && Option.equal String.equal (subject tbl) (Some target) ->
        found := callee fn :: !found
      | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it body;
    List.rev !found
  in
  let hot = hot u in
  let on_ident loc name =
    if String.starts_with ~prefix:"Random." name then
      add "random" loc
        "Stdlib.Random is wall-entropy; use Phoebe_util.Prng (seeded, deterministic)";
    if mem name clock_reads then
      add "wall-clock" loc (name ^ " reads the host clock; virtual time comes from the engine");
    if String.equal name "Stdlib.compare" then
      add "poly-compare" loc
        "Stdlib.compare is structural; use a typed comparator (Int.compare, ...)";
    if hot && mem name hot_allocs then
      add "hot-alloc" loc
        (name ^ " allocates on a hot path; reuse a scratch buffer/slab (DESIGN.md 4h)")
  in
  let on_apply loc fn args =
    let operands = List.filter_map snd args in
    let eq_id op =
      match List.find_map id_like operands with
      | Some id ->
        add "poly-eq-id" loc
          (Printf.sprintf "structural %s on id-like handle (%s); use Int.equal" op id)
      | None -> ()
    in
    match (callee fn, operands) with
    | "Stdlib.=", _ -> eq_id "="
    | "Stdlib.<>", _ -> eq_id "<>"
    | "Hashtbl.iter", [ body; tbl ] when is_closure body -> (
      match subject tbl with
      | Some target ->
        List.iter
          (fun op ->
            add "hashtbl-iter-mutate" fn.exp_loc
              (Printf.sprintf
                 "Hashtbl.iter over %s mutates it in the loop body (%s); collect then mutate"
                 target op))
          (mutations ~target body)
      | None -> ())
    | "List.map", f :: _ when hot && is_closure f ->
      add "hot-alloc" loc
        "closure-capturing List.map on a hot path; iterate with a preallocated accumulator"
    | _ -> ()
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> on_ident e.exp_loc (normalize p)
    | Texp_apply (fn, args) -> on_apply e.exp_loc fn args
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let module_binding it mb =
    (match (mb.mb_id, alias_target mb.mb_expr) with
    | Some id, Some p -> Hashtbl.replace aliases (Ident.name id) (normalize p)
    | _ -> ());
    Tast_iterator.default_iterator.module_binding it mb
  in
  let it = { Tast_iterator.default_iterator with expr; module_binding } in
  it.structure it u.Loader.str;
  if in_lib u.Loader.source && not u.Loader.has_mli then
    add_at 1 "missing-mli"
      "library module without an interface; add one or pragma a deliberate exposure";
  List.rev !out

let findings ~hot (loaded : Loader.t) =
  List.concat_map (unit_findings ~lib_roots:loaded.Loader.lib_roots ~hot) loaded.Loader.units
