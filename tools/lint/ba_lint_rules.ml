(* Determinism & domain-safety rules over the Parsetree. See the .mli and
   DESIGN.md §8 for the catalog and rationale. *)

type code = D001 | D002 | D003 | D004 | D005 | D006 | D007 | D008

let code_name = function
  | D001 -> "D001"
  | D002 -> "D002"
  | D003 -> "D003"
  | D004 -> "D004"
  | D005 -> "D005"
  | D006 -> "D006"
  | D007 -> "D007"
  | D008 -> "D008"

let code_of_string = function
  | "D001" -> Some D001
  | "D002" -> Some D002
  | "D003" -> Some D003
  | "D004" -> Some D004
  | "D005" -> Some D005
  | "D006" -> Some D006
  | "D007" -> Some D007
  | "D008" -> Some D008
  | _ -> None

let describe = function
  | D001 -> "ambient randomness: route all draws through Ba_prng.Rng so runs replay from a seed"
  | D002 -> "wall-clock read in lib/: results must be a pure function of the seed"
  | D003 -> "top-level mutable state in lib/: shared across Domain.spawn, a latent data race"
  | D004 -> "Hashtbl.iter/fold visit entries in nondeterministic hash order"
  | D005 -> "Obj.* / physical equality: representation-dependent behaviour"
  | D006 -> "library module without an interface (.mli)"
  | D007 ->
      "bare Domain.spawn/Domain.join outside lib/harness: spawn only via the supervised runners"
  | D008 ->
      "catch-all exception handler in lib/: swallows control exceptions and real bugs alike"

type violation = {
  v_file : string;
  v_line : int;
  v_col : int;
  v_code : code;
  v_message : string;
}

(* Report order is (file, line, rule, col): the rule code is the third key
   so that two findings on one line group by rule in the JSON output
   regardless of which column each anchor landed on. *)
let compare_violation a b =
  compare
    (a.v_file, a.v_line, code_name a.v_code, a.v_col)
    (b.v_file, b.v_line, code_name b.v_code, b.v_col)

(* ------------------------------------------------------------------ *)
(* Path scoping: which rule set applies is decided by the path's
   segments, so fixture trees like tools/lint/fixtures/lib/... behave
   exactly like the real lib/. *)

let path_segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

let rec has_adjacent a b = function
  | x :: (y :: _ as rest) -> (x = a && y = b) || has_adjacent a b rest
  | _ -> false

type ctx = { c_path : string; c_lib : bool; c_prng : bool; c_harness : bool }

let ctx_of_path path =
  let segs = path_segments path in
  { c_path = path;
    c_lib = List.mem "lib" segs;
    c_prng = has_adjacent "lib" "prng" segs;
    c_harness = has_adjacent "lib" "harness" segs }

(* ------------------------------------------------------------------ *)
(* Suppression pragmas: "(* lint: allow D004 — why *)". A pragma
   suppresses matching violations on its own line and the line below. *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  if m = 0 then None else go from

let is_word_char c =
  (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_'

let pragma_codes line =
  let marker = "lint: allow" in
  let n = String.length line in
  let rec words acc i =
    let i = ref i in
    while !i < n && line.[!i] = ' ' do incr i done;
    let j = ref !i in
    while !j < n && is_word_char line.[!j] do incr j done;
    if !j = !i then acc
    else
      match code_of_string (String.sub line !i (!j - !i)) with
      | Some c -> words (c :: acc) !j
      | None -> acc
  in
  let rec all acc from =
    match find_sub line marker from with
    | None -> acc
    | Some i -> all (words acc (i + String.length marker)) (i + String.length marker)
  in
  all [] 0

let pragmas_of_source source =
  let table : (int, code list) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i line ->
      match pragma_codes line with
      | [] -> ()
      | codes -> Hashtbl.replace table (i + 1) codes)
    (String.split_on_char '\n' source);
  table

let suppressed pragmas v =
  let at line = match Hashtbl.find_opt pragmas line with Some cs -> List.mem v.v_code cs | None -> false in
  at v.v_line || at (v.v_line - 1)

(* ------------------------------------------------------------------ *)
(* Rule checks proper. *)

let norm_path lid =
  match Longident.flatten lid with "Stdlib" :: rest -> rest | p -> p

let last_component lid =
  match List.rev (Longident.flatten lid) with x :: _ -> x | [] -> ""

let mutable_ctor = function
  | [ "ref" ] -> Some "ref"
  | [ "Array"; ("make" | "init" | "create_float" | "copy" | "of_list" as f) ] -> Some ("Array." ^ f)
  | [ "Hashtbl"; ("create" | "copy" | "of_seq" as f) ] -> Some ("Hashtbl." ^ f)
  | [ "Buffer"; "create" ] -> Some "Buffer.create"
  | [ "Queue"; ("create" | "copy" as f) ] -> Some ("Queue." ^ f)
  | [ "Stack"; ("create" | "copy" as f) ] -> Some ("Stack." ^ f)
  | [ "Bytes"; ("create" | "make" | "init" | "of_string" as f) ] -> Some ("Bytes." ^ f)
  | _ -> None

let wall_clock = function
  | [ "Sys"; "time" ] -> Some "Sys.time"
  | [ "Unix"; ("time" | "gettimeofday" | "gmtime" | "localtime" as f) ] -> Some ("Unix." ^ f)
  | _ -> None

let scan ~ctx structure =
  let acc = ref [] in
  let add (loc : Location.t) code msg =
    let p = loc.loc_start in
    acc :=
      { v_file = ctx.c_path;
        v_line = p.pos_lnum;
        v_col = p.pos_cnum - p.pos_bol;
        v_code = code;
        v_message = msg }
      :: !acc
  in
  let check_ident loc lid =
    let path = norm_path lid in
    let name = String.concat "." path in
    (match path with
    | "Random" :: _ when not ctx.c_prng ->
        add loc D001 (name ^ " is ambient randomness; draw from Ba_prng.Rng instead (seed-replay contract)")
    | "Obj" :: _ -> add loc D005 (name ^ " defeats the type system; never needed in this codebase")
    | [ ("==" | "!=") as op ] ->
        add loc D005
          ("physical (in)equality (" ^ op ^ ") on boxed values is representation-dependent; use = / <> or compare")
    | [ "Domain"; ("spawn" | "join" as f) ] when not ctx.c_harness ->
        add loc D007
          ("Domain." ^ f
         ^ " outside lib/harness leaks domains on exceptions; go through \
            Ba_harness.Experiment.monte_carlo, which joins via Fun.protect")
    | [ "Hashtbl"; ("iter" | "fold") ] | [ "MoreLabels"; "Hashtbl"; ("iter" | "fold") ] ->
        add loc D004
          (name
         ^ " visits entries in hash order, which is not stable across runs; iterate a deterministic key order, or suppress at order-insensitive sites")
    | _ -> ());
    if ctx.c_lib then
      match wall_clock path with
      | Some name ->
          add loc D002 (name ^ " reads the wall clock; library results must be a pure function of the seed")
      | None -> ()
  in
  (* D008: a [try] case whose pattern matches every exception. An alias or
     or-pattern is a catch-all iff a branch is; a [when] guard narrows the
     case, so guarded handlers pass. *)
  let rec catch_all_pat (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_any | Ppat_var _ -> true
    | Ppat_alias (p', _) | Ppat_constraint (p', _) -> catch_all_pat p'
    | Ppat_or (a, b) -> catch_all_pat a || catch_all_pat b
    | _ -> false
  in
  let check_try (cases : Parsetree.case list) =
    if ctx.c_lib then
      List.iter
        (fun (c : Parsetree.case) ->
          if c.pc_guard = None && catch_all_pat c.pc_lhs then
            add c.pc_lhs.ppat_loc D008
              "catch-all handler (try ... with _ ->) silently swallows Stack_overflow, \
               control exceptions, and genuine bugs; match the specific exceptions the \
               guarded expression can raise")
        cases
  in
  (* D001/D002/D004/D005: every identifier and module path in the file. *)
  let super = Ast_iterator.default_iterator in
  let it =
    { super with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> check_ident e.pexp_loc txt
          | Pexp_try (_, cases) -> check_try cases
          | Pexp_match (_, cases) ->
              (* [match ... with exception _ ->] is the same hazard. *)
              check_try
                (List.filter_map
                   (fun (c : Parsetree.case) ->
                     match c.pc_lhs.ppat_desc with
                     | Ppat_exception p -> Some { c with pc_lhs = p }
                     | _ -> None)
                   cases)
          | _ -> ());
          super.expr self e);
      module_expr =
        (fun self me ->
          (match me.pmod_desc with
          | Pmod_ident { txt; _ } -> (
              match norm_path txt with
              | "Random" :: _ when not ctx.c_prng ->
                  add me.pmod_loc D001
                    "module Random is ambient randomness; use Ba_prng.Rng instead (seed-replay contract)"
              | _ -> ())
          | _ -> ());
          super.module_expr self me) }
  in
  it.structure it structure;
  (* D003: top-level mutable state in library code. Collect this file's
     mutable record fields first, then walk module-level bindings without
     descending into function bodies (a closure that *builds* mutable
     state per call is fine; a shared module-level value is not). *)
  if ctx.c_lib then begin
    let mutable_fields = ref [ "contents" ] in
    let collect =
      { super with
        type_declaration =
          (fun self (d : Parsetree.type_declaration) ->
            (match d.ptype_kind with
            | Ptype_record labels ->
                List.iter
                  (fun (l : Parsetree.label_declaration) ->
                    if l.pld_mutable = Mutable then mutable_fields := l.pld_name.txt :: !mutable_fields)
                  labels
            | _ -> ());
            super.type_declaration self d) }
    in
    collect.structure collect structure;
    let toplevel =
      { super with
        expr =
          (fun self e ->
            match e.pexp_desc with
            | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> ()
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
                (match mutable_ctor (norm_path txt) with
                | Some name ->
                    add e.pexp_loc D003
                      (name ^ " at module level is shared across Domain.spawn (Experiment.monte_carlo); allocate per call or per trial")
                | None -> ());
                super.expr self e
            | Pexp_array _ ->
                add e.pexp_loc D003
                  "array literal at module level is shared mutable state across Domain.spawn; allocate per call or make it a list";
                super.expr self e
            | Pexp_record (fields, _) ->
                (match
                   List.find_opt
                     (fun ((lid : Longident.t Location.loc), _) ->
                       List.mem (last_component lid.txt) !mutable_fields)
                     fields
                 with
                | Some (lid, _) ->
                    add lid.loc D003
                      ("record literal with mutable field '" ^ last_component lid.txt
                     ^ "' at module level is shared across Domain.spawn; allocate per call")
                | None -> ());
                super.expr self e
            | _ -> super.expr self e) }
    in
    let rec top_structure str =
      List.iter
        (fun (si : Parsetree.structure_item) ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter (fun (vb : Parsetree.value_binding) -> toplevel.expr toplevel vb.pvb_expr) vbs
          | Pstr_module mb -> top_module mb.pmb_expr
          | Pstr_recmodule mbs -> List.iter (fun (mb : Parsetree.module_binding) -> top_module mb.pmb_expr) mbs
          | Pstr_include i -> top_module i.pincl_mod
          | _ -> ())
        str
    and top_module (me : Parsetree.module_expr) =
      match me.pmod_desc with
      | Pmod_structure s -> top_structure s
      | Pmod_constraint (me', _) -> top_module me'
      | _ -> ()
    in
    top_structure structure
  end;
  !acc

(* ------------------------------------------------------------------ *)

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  try Ok (Parse.implementation lexbuf)
  with exn -> (
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
        let msg = Format.asprintf "%a" Location.print_report report in
        Error (String.map (function '\n' -> ' ' | c -> c) (String.trim msg))
    | _ -> Error (path ^ ": " ^ Printexc.to_string exn))

let scan_source ~path ?(mli_exists = true) source =
  match parse ~path source with
  | Error _ as e -> e
  | Ok structure ->
      let ctx = ctx_of_path path in
      let vs = scan ~ctx structure in
      let vs =
        if ctx.c_lib && not mli_exists then
          { v_file = path;
            v_line = 1;
            v_col = 0;
            v_code = D006;
            v_message =
              "library module has no interface ("
              ^ Filename.remove_extension (Filename.basename path)
              ^ ".mli); every lib/ module must declare one" }
          :: vs
        else vs
      in
      let pragmas = pragmas_of_source source in
      Ok (List.sort compare_violation (List.filter (fun v -> not (suppressed pragmas v)) vs))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan_file path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | source ->
      let mli_exists = Sys.file_exists (Filename.remove_extension path ^ ".mli") in
      scan_source ~path ~mli_exists source

let collect_ml_files roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.sort compare
      |> List.fold_left
           (fun acc entry ->
             if entry = "" || entry.[0] = '.' || entry.[0] = '_' then acc
             else walk acc (Filename.concat path entry))
           acc
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  List.sort_uniq compare (List.fold_left walk [] roots)

(* ------------------------------------------------------------------ *)
(* Reporters. *)

let report_text fmt vs =
  List.iter
    (fun v ->
      Format.fprintf fmt "%s:%d:%d: [%s] %s@." v.v_file v.v_line v.v_col (code_name v.v_code)
        v.v_message)
    vs

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let report_json fmt vs =
  Format.fprintf fmt "[";
  List.iteri
    (fun i v ->
      Format.fprintf fmt "%s@\n  { \"file\": \"%s\", \"line\": %d, \"col\": %d, \"code\": \"%s\", \"message\": \"%s\" }"
        (if i = 0 then "" else ",")
        (json_escape v.v_file) v.v_line v.v_col (code_name v.v_code) (json_escape v.v_message))
    vs;
  Format.fprintf fmt "%s]@." (if vs = [] then "" else "\n")

let run ?(json = false) ~out ~err paths =
  let missing, present = List.partition (fun p -> not (Sys.file_exists p)) paths in
  List.iter (fun p -> Format.fprintf err "ba_lint: no such file or directory: %s@." p) missing;
  let files = collect_ml_files present in
  let errors = ref (List.length missing) in
  let violations =
    List.concat_map
      (fun f ->
        match scan_file f with
        | Ok vs -> vs
        | Error msg ->
            incr errors;
            Format.fprintf err "ba_lint: %s@." msg;
            [])
      files
  in
  let violations = List.sort compare_violation violations in
  if json then report_json out violations else report_text out violations;
  if not json then
    if violations = [] && !errors = 0 then
      Format.fprintf err "ba_lint: clean (%d files)@." (List.length files)
    else
      Format.fprintf err "ba_lint: %d violation(s), %d error(s) in %d file(s) scanned@."
        (List.length violations) !errors (List.length files);
  if !errors > 0 then 2 else if violations <> [] then 1 else 0
