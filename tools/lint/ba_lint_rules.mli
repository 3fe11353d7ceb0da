(** [ba_lint] — determinism & domain-safety static analysis.

    The reproduction's claims rest on bit-identical seed replay: every
    Monte-Carlo result must be a pure function of its seed, and
    {!Ba_harness.Experiment.monte_carlo} fans trials across OCaml 5 Domains,
    so hidden shared mutable state or ambient randomness/wall-clock reads
    silently corrupt both reproducibility and domain-safety. These rules
    are enforced over the Parsetree of every [.ml] under [lib/], [bin/],
    [bench/], and [examples/] (see the rule catalog in DESIGN.md §8):

    - {b D001} no [Random.*]/[Stdlib.Random] outside [lib/prng] — all
      randomness flows through [Ba_prng.Rng], which is splittable and
      seed-deterministic.
    - {b D002} no wall-clock reads ([Sys.time], [Unix.gettimeofday], …)
      inside [lib/].
    - {b D003} no top-level mutable state in [lib/] ([ref], [Array.make],
      [Hashtbl.create], [Buffer.create], array literals, mutable-record
      literals, … bound at module level) — such values are shared across
      [Domain.spawn] and are latent data races.
    - {b D004} no [Hashtbl.iter]/[Hashtbl.fold] — entries are visited in
      hash order, which is nondeterministic across runs the moment the
      insertion pattern changes; iterate a deterministic key order
      instead, or suppress at commutative/order-insensitive sites.
    - {b D005} no [Obj.*] and no physical (in)equality ([==]/[!=]) —
      representation-dependent results.
    - {b D006} every [lib/] module has an interface ([.mli]).
    - {b D007} no bare [Domain.spawn]/[Domain.join] outside [lib/harness]
      — ad-hoc domains leak on exceptions; all fan-out goes through the
      supervised Monte-Carlo runner ([Ba_harness.Experiment.monte_carlo]),
      which always joins via [Fun.protect].
    - {b D008} no catch-all exception handlers ([try ... with _ ->], an
      unguarded variable pattern, or [match ... with exception _ ->]) in
      [lib/] — they swallow [Stack_overflow], the explorers' control
      exceptions ([Exhaust]'s budget/found signals), and genuine bugs
      alike; match the specific exceptions the guarded expression can
      raise, or suppress at teardown sites that must not throw.

    A violation is suppressed by a pragma comment on the same line or the
    line directly above it: [(* lint: allow D004 — commutative count *)].
    Codes are matched textually, so the pragma also works from within a
    string literal — keep pragmas out of string constants. *)

type code = D001 | D002 | D003 | D004 | D005 | D006 | D007 | D008

val code_name : code -> string

(** [code_of_string "D001"] — [None] for unknown codes. *)
val code_of_string : string -> code option

(** One-line rule description, used by [--help] and the reporters. *)
val describe : code -> string

type violation = {
  v_file : string;
  v_line : int;  (** 1-based *)
  v_col : int;  (** 0-based *)
  v_code : code;
  v_message : string;
}

(** Order by (file, line, code, col) — the stable report order ([--json]
    emits findings in exactly this order). *)
val compare_violation : violation -> violation -> int

(** [scan_source ~path ?mli_exists source] parses [source] (attributed to
    [path], whose segments decide the [lib/]/[lib/prng] scoping) and
    returns the unsuppressed violations, or [Error msg] on a parse
    failure. [mli_exists] (default [true]) drives D006 for lib modules. *)
val scan_source : path:string -> ?mli_exists:bool -> string -> (violation list, string) result

(** [scan_file path] — {!scan_source} on the file's contents, with
    [mli_exists] read from the filesystem. *)
val scan_file : string -> (violation list, string) result

(** [collect_ml_files roots] — every [*.ml] under the given files or
    directories, recursively, skipping dot- and [_]-prefixed entries
    ([_build], [.git], …); sorted, duplicates removed. *)
val collect_ml_files : string list -> string list

val report_text : Format.formatter -> violation list -> unit

(** Stable JSON array of [{file, line, col, code, message}] objects. *)
val report_json : Format.formatter -> violation list -> unit

(** [run ?json ~out ~err paths] scans [paths] and reports to [out]
    (violations) and [err] (parse errors, summary). Returns the exit
    code: 0 clean, 1 violations, 2 errors. *)
val run : ?json:bool -> out:Format.formatter -> err:Format.formatter -> string list -> int
