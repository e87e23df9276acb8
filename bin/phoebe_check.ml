(* phoebe_check: the static analyzer of the kernel libraries — effect
   reachability and per-site rules over the dune build's .cmt files
   (see lib/check and DESIGN.md section 4k).

   Usage:
     phoebe_check [--root DIR] [--dump-order-graph] [CMT_DIR...]

   With no CMT_DIR arguments the tool scans the standard library layout
   under the root: <root>/_build/default/lib when present (running from
   a source checkout), else <root>/lib (running inside _build, as the
   dune runtest rule does). Exit 0 = clean, 1 = findings, 2 = usage or
   no cmt files found. *)

let () =
  let root = ref "." in
  let dump = ref false in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--root" :: d :: rest ->
      root := d;
      parse rest
    | "--dump-order-graph" :: rest ->
      dump := true;
      parse rest
    | ("--help" | "-h") :: _ ->
      print_endline
        "usage: phoebe_check [--root DIR] [--dump-order-graph] [CMT_DIR...]";
      exit 0
    | d :: rest ->
      dirs := d :: !dirs;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cmt_dirs =
    if !dirs <> [] then List.rev !dirs
    else begin
      let built = Filename.concat !root (Filename.concat "_build" (Filename.concat "default" "lib")) in
      if Sys.file_exists built then [ built ] else [ Filename.concat !root "lib" ]
    end
  in
  let config = { Phoebe_check.Check.default_config with cmt_dirs; src_root = !root } in
  let r = Phoebe_check.Check.analyze config in
  if r.Phoebe_check.Check.n_units = 0 then begin
    prerr_endline "phoebe_check: no .cmt files found (run `dune build` first)";
    exit 2
  end;
  print_string r.Phoebe_check.Check.rendered;
  if !dump then begin
    print_endline "static acquisition-order graph:";
    List.iter
      (fun (a, b) -> Printf.printf "  %s -> %s\n" a b)
      r.Phoebe_check.Check.order_edges
  end;
  exit (if r.Phoebe_check.Check.findings = [] then 0 else 1)
