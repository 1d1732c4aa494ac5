(* Approximate same-file call graph over the repo's Parsetree.

   Factored out of [Share_lint]: expression helpers (reference/write
   extraction, binding summaries) plus the reachability engine behind its
   question "starting from a task expression handed to a pool primitive,
   which module-level mutable state can transitively be touched?".  That
   is {!reach}, preserved byte-for-byte from the original in-lint
   implementation (accumulation order included) so the share-lint goldens
   cannot move.  The parse helpers also serve [Source_lint] and the
   shared parse of `securebit_lint all`.

   Everything here is purely syntactic (Parsetree, no typing): unqualified
   references resolve to same-file bindings of that name (all of them —
   duplicates union, conservative in the right direction).  Higher-order
   flow, functors and shadowing are invisible; the analyzers built on top
   document themselves as approximate accordingly. *)

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let rec peel (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_coerce (e, _, _) -> peel e
  | _ -> e

let head_ident e =
  match (peel e).Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> Some (String.concat "." (Longident.flatten txt))
  | _ -> None

let iter_expr f e =
  let default = Ast_iterator.default_iterator in
  let it = { default with expr = (fun it e -> f e; default.expr it e) } in
  it.expr it e

(* All value-path references in an expression, as dotted strings. *)
let refs_of_expr e =
  let acc = ref [] in
  iter_expr
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { txt; _ } -> acc := String.concat "." (Longident.flatten txt) :: !acc
      | _ -> ())
    e;
  !acc

(* Every value name bound anywhere inside an expression: function
   parameters, let patterns, match cases, for-loop indices.  Used to
   separate a binding's own state from captured state. *)
let bound_names_of_expr e =
  let acc = ref [] in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      pat =
        (fun it (p : Parsetree.pattern) ->
          (match p.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } | Parsetree.Ppat_alias (_, { txt; _ }) ->
            acc := txt :: !acc
          | _ -> ());
          default.pat it p);
      expr =
        (fun it (e : Parsetree.expression) ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_for ({ ppat_desc = Parsetree.Ppat_var { txt; _ }; _ }, _, _, _, _) ->
            acc := txt :: !acc
          | _ -> ());
          default.expr it e);
    }
  in
  it.expr it e;
  !acc

(* Syntactic mutation sites: [x := e], [incr]/[decr], [a.(i) <- v] (the
   parser spells it [Array.set]), record-field assignment, and the
   imperative container operations.  The recorded target is the head
   identifier being mutated. *)
let writer_heads =
  [
    ":="; "incr"; "decr"; "Array.set"; "Array.unsafe_set"; "Array.fill"; "Array.blit"; "Bytes.set";
    "Bytes.fill"; "Bytes.blit"; "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
    "Buffer.add_substring"; "Buffer.add_buffer"; "Buffer.clear"; "Buffer.reset"; "Queue.add";
    "Queue.push"; "Queue.pop"; "Queue.take"; "Queue.clear"; "Queue.transfer"; "Stack.push";
    "Stack.pop"; "Stack.clear";
  ]

let is_writer h = List.mem h writer_heads || List.mem h (List.map (( ^ ) "Stdlib.") writer_heads)

type write = { target : string; wline : int }

let writes_of_expr e =
  let acc = ref [] in
  iter_expr
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_setfield (target, _, _) -> (
        match head_ident target with
        | Some t -> acc := { target = t; wline = line_of e.Parsetree.pexp_loc } :: !acc
        | None -> ())
      | Parsetree.Pexp_apply (f, args) -> (
        match head_ident f with
        | Some h when is_writer h -> (
          match List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args with
          | Some (_, a) -> (
            match head_ident a with
            | Some t -> acc := { target = t; wline = line_of e.Parsetree.pexp_loc } :: !acc
            | None -> ())
          | None -> ())
        | _ -> ())
      | _ -> ())
    e;
  !acc

let is_function e =
  match (peel e).Parsetree.pexp_desc with
  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ | Parsetree.Pexp_newtype _ -> true
  | _ -> false

let pattern_var (p : Parsetree.pattern) =
  let rec go (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Parsetree.Ppat_var { txt; _ } -> Some txt
    | Parsetree.Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go p

let parse_string ~path contents =
  let lexbuf = Lexing.from_string contents in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception _ -> Error lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- binding summaries and same-file reachability ------------------------ *)

type summary = { fn_refs : string list; fn_writes : write list }

let summarize e =
  let bound = bound_names_of_expr e in
  let fn_refs = List.filter (fun r -> not (List.mem r bound)) (refs_of_expr e) in
  let fn_writes = List.filter (fun w -> not (List.mem w.target bound)) (writes_of_expr e) in
  { fn_refs; fn_writes }

type entry = Body of summary | Binding of string | Opaque

(* Transitive same-file reachability from an entry: the union of all
   references and escaping writes of the entry and of every same-file
   function it can call.  Duplicate binding names are unioned, which is
   conservative in the right direction.  The traversal and accumulation
   order are exactly [Share_lint]'s original ones (its goldens depend on
   them). *)
let reach ~bindings entry =
  let visited = Hashtbl.create 16 in
  let refs = ref [] in
  let writes = ref [] in
  let rec follow name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.add visited name ();
      List.iter
        (fun (n, summary) ->
          if n = name then begin
            refs := summary.fn_refs @ !refs;
            writes := summary.fn_writes @ !writes;
            List.iter (fun r -> if not (String.contains r '.') then follow r) summary.fn_refs
          end)
        bindings
    end
  in
  (match entry with
  | Body { fn_refs; fn_writes } ->
    refs := fn_refs;
    writes := fn_writes;
    List.iter (fun r -> if not (String.contains r '.') then follow r) fn_refs
  | Binding name -> follow name
  | Opaque -> ());
  (!refs, !writes)
