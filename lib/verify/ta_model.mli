(** Threshold-automata models of the Rabin-skeleton phase machine.

    The skeleton ({!Ba_core.Skeleton}) runs the same two-round phase for
    Rabin's dealer protocol, Chor–Coan, and the paper's Algorithm 3 — only
    the coin source differs. One shared builder compiles that round
    structure into the {!Ta} IR as the standard {e one-phase decomposition}
    (cf. ByMC's [ABA-decomp.ta]): locations are the phase's control points,
    shared counters count round-1 votes and round-2 decided-votes per value,
    and Byzantine influence appears as the [+ F] slack on every threshold
    guard. Phase-boundary locations ([F*] finished, [G*] decided entry,
    [H*] coin entry) are sinks, so the control graph is a DAG and the
    automaton validates under {!Ta.validate}'s counter-bound check.

    The model is a {b may-over-approximation}: recv in the real skeleton is
    deterministic (a reached threshold {e forces} the branch), while TA
    rules may always fire. Safety properties proved on the abstraction
    (decided coherence, at most one finishing value per phase) transfer to
    the protocol; properties that need forced branches (validity through
    the coin case) are discharged exactly by {!Exhaust} instead — see
    DESIGN.md §12 for the boundary. *)

(** The Rabin dealer instantiation ([Setups] protocol ["rabin"]). *)
val rabin_dealer : unit -> Ta.automaton

(** The paper's Algorithm 3 with designated flippers (["alg3"]). *)
val alg3 : unit -> Ta.automaton

(** [(filename stem, automaton)] for every exported model, in a fixed
    deterministic order. *)
val all : unit -> (string * Ta.automaton) list

(** {1 Source cross-check}

    The threshold guards the skeleton source ([lib/core/skeleton.ml]) must
    realize, in the shape [tools/ta_export] extracts them: which tally is
    compared against which parameter expression. The export pass fails if
    the source's guards drift from this set — the IR and the executable
    protocol are kept in lock-step. *)

type source_guard = {
  sg_sub : [ `R1 | `R2 ];  (** which sub-round's tally feeds the guard *)
  sg_decided_only : bool;  (** the tally's [~decided_only] flag *)
  sg_rhs : [ `N_minus_t | `T_plus_1 ];  (** the threshold expression *)
}

val pp_source_guard : Format.formatter -> source_guard -> unit

(** Expected guard multiset, sorted in the {!compare} order the export pass
    uses for the comparison. *)
val source_guards : source_guard list
