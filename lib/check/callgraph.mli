(** Approximate same-file call graph over the repo's Parsetree.

    The shared machinery behind the source-level analyzers: expression
    helpers, parsing, per-binding capture summaries (escaping references
    and writes), and the same-file transitive-reachability engine that
    {!Share_lint}'s task analysis runs on (preserved byte-for-byte from
    its original in-lint form).

    Everything is purely syntactic — [Parse.implementation], no typing.
    Unqualified references resolve to same-file bindings of that name
    (all of them; duplicates union); qualified references are left to
    the client.  Higher-order flow, functors and shadowing are invisible;
    clients stay conservative accordingly. *)

(** {1 Expression helpers} *)

val module_of_path : string -> string
(** ["Voting"] for ["lib/core/voting.ml"]. *)

val line_of : Location.t -> int

val peel : Parsetree.expression -> Parsetree.expression
(** Strip type constraints and coercions. *)

val head_ident : Parsetree.expression -> string option
(** The dotted value path of an identifier expression, if it is one. *)

type write = { target : string; wline : int }
(** One syntactic mutation: the head identifier being mutated and the
    line of the mutating expression. *)

val is_function : Parsetree.expression -> bool
(** Is this (after {!peel}) a syntactic function? *)

val pattern_var : Parsetree.pattern -> string option
(** The variable a simple (possibly constrained) pattern binds. *)

val parse_string : path:string -> string -> (Parsetree.structure, int) result
(** Parse an implementation; [Error line] on syntax errors. *)

val read_file : string -> string

(** {1 Binding summaries and same-file reachability} *)

type summary = { fn_refs : string list; fn_writes : write list }
(** A binding's escaping references and writes: everything it mentions
    minus the names it binds itself. *)

val summarize : Parsetree.expression -> summary

type entry = Body of summary | Binding of string | Opaque
(** Where reachability starts: an inline body already summarized, a named
    same-file binding, or something the analysis cannot see into. *)

val reach : bindings:(string * summary) list -> entry -> string list * write list
(** Transitive same-file closure: the union of refs and writes of the
    entry and of every same-file binding it can reach through unqualified
    references.  Exactly {!Share_lint}'s original task analysis —
    accumulation order included — so its diagnostics cannot move. *)
