(** Typed threshold-automata IR (DESIGN.md §12).

    A threshold automaton (Konnov–Veith–Widder, the ByMC input form) models
    one process of a fault-tolerant distributed algorithm: a finite control
    graph whose edges ("rules") are guarded by {e threshold conditions} over
    shared counters of sent messages ([s >= n - t], [s >= t + 1], …) and
    whose updates only ever {e increment} those counters. Because counters
    are monotone and guards are lower bounds, a guard that becomes enabled
    stays enabled — the property that makes the parameterized model checking
    of ByMC (and the hand-counting arguments of the paper's lemmas) sound.

    This module is the target of the [tools/ta_export] compilation pass: the
    Rabin-skeleton protocols' round structure compiles into {!automaton}
    values ({!Ta_model}), which are {!validate}d structurally and exported
    through {!to_string} as deterministic, ByMC-compatible [.ta] text. The
    validator extends the D001–D007 invariant family into semantic
    territory: it rejects non-monotone guards, counter resets/decrements,
    cyclic control flow (which would break the once-per-traversal counter
    bound), and malformed coin branches. *)

(** {1 Expressions and guards} *)

(** Linear integer expressions over parameters and shared counters. *)
type expr =
  | Const of int
  | Param of string  (** an environment parameter: ["N"], ["T"], ["F"] *)
  | Shared of string  (** a shared message counter *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of int * expr

type cmp = Ge  (** [>=] *) | Gt  (** [>] *)

(** Guards are conjunctions of threshold comparisons. Monotonicity demands
    that shared counters appear only on the left of [Ge]/[Gt] with positive
    coefficient — {!validate} enforces this. *)
type guard = True | Cmp of cmp * expr * expr | All of guard list

(** {1 Rules and automata} *)

(** [x' == x + u_delta]; {!validate} requires [u_delta > 0] (counters are
    monotone — never reset, never decremented). *)
type update = { u_shared : string; u_delta : int }

(** Rule kinds: deterministic moves, or one arm of a coin branch. The two
    arms of coin [k] share a source location and a guard and differ only in
    target — the IR form of "val := coin of the phase". *)
type kind = Det | Coin of { coin : int; value : int }

type rule = {
  r_from : string;
  r_to : string;
  r_guard : guard;
  r_updates : update list;
  r_kind : kind;
}

type automaton = {
  ta_name : string;
  ta_comment : string list;  (** header comment lines, emitted verbatim *)
  ta_params : string list;
  ta_shared : string list;
  ta_locations : string list;
  ta_initial : string list;  (** subset of [ta_locations] *)
  ta_assumptions : guard list;  (** resilience conditions, e.g. [N > 3T] *)
  ta_rules : rule list;
  ta_specs : (string * string) list;  (** named temporal specs, verbatim *)
}

(** {1 Validation} *)

type error = { e_where : string; e_what : string }

val pp_error : Format.formatter -> error -> unit

(** [validate a] — structural soundness of the IR. Checks (all findings are
    returned, deterministically ordered by rule index then check name):
    - every rule endpoint / initial location is declared, names are unique
      and non-empty;
    - {b guard monotonicity}: shared counters occur only with positive
      coefficient on the greater side of [Ge]/[Gt] — a guard over monotone
      counters that can only switch off→on, never on→off;
    - {b counter bound}: every update has [u_delta > 0] and targets a
      declared counter, and the control graph is {e acyclic}, so one
      process traversal increments each counter at most a bounded number of
      times (our exports increment each counter exactly once per phase);
    - {b coin branches}: the arms of each coin id share one source location
      and one guard, carry no updates, have pairwise-distinct targets and
      values covering [{0, 1}]. *)
val validate : automaton -> error list

(** {1 Export} *)

(** Deterministic ByMC-compatible rendering: a pure function of the IR
    value — byte-identical across runs, machines, and readdir orders. *)
val to_string : automaton -> string
