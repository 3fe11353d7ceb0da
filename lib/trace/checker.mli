(** Invariant checkers over engine outcomes.

    Every simulation in the test-suite and the harness runs through these;
    a non-empty violation list is a correctness bug (either in a protocol
    or in the engine), never an acceptable outcome.

    The phase-structured checks consume the per-round {!Ba_sim.Engine.round_record}s
    (run the engine with [~record:true]); they encode the paper's lemmas:

    - {b decided coherence} (Lemma 3): at every round snapshot, all honest
      nodes with a set decided flag hold one identical value.
    - {b frozen finishers}: once a node reports finished, its value never
      changes and equals its final output.
    - {b termination gap} (Lemma 4): every honest node halts at most two
      phases after the first finisher appears.
    - {b corruption budget}: at most [t] corruptions, each node corrupted at
      most once. *)

type violation = { check : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

(** {1 Substrate-level checks}

    Typed on the engine-agnostic {!Ba_sim.Run.outcome}, so synchronous and
    asynchronous executions audit through one code path: project a native
    outcome with [Engine.to_run] / [Async_engine.to_run]. The completion
    check words its violation in the span's native unit (round cap vs.
    scheduler-step cap). *)

val agreement_run : Ba_sim.Run.outcome -> violation list

val validity_run : Ba_sim.Run.outcome -> violation list

val completion_run : Ba_sim.Run.outcome -> violation list

(** Budget and double-count coherence only; the per-record "corrupted
    twice" audit stays on the synchronous {!corruption_budget}. *)
val corruption_budget_run : Ba_sim.Run.outcome -> violation list

(** [benign_faults_run ro] — fires when the run's metrics show injected
    benign fault events ({!Ba_sim.Faults}): in a configuration that claims
    to be fault-free, any metered drop/duplicate/corruption/silence is a
    harness bug. Fault experiments opt out via [allow_faults]. *)
val benign_faults_run : Ba_sim.Run.outcome -> violation list

(** [congest_run ro] — fires when the run was metered with a CONGEST limit
    and some payload exceeded it. *)
val congest_run : Ba_sim.Run.outcome -> violation list

(** [standard_run ?allow_faults ro] — every substrate-level check:
    agreement, validity, completion, corruption budget, congest, and
    (unless [allow_faults]) the benign-fault audit. This is the default
    audit for supervised async trials. *)
val standard_run : ?allow_faults:bool -> Ba_sim.Run.outcome -> violation list

(** {1 Synchronous-engine checks} *)

(** [corruption_budget o] — {!corruption_budget_run} on [Engine.to_run o],
    plus the per-record audit that no node is corrupted twice. *)
val corruption_budget : Ba_sim.Engine.outcome -> violation list

(** Record-level checks (need [~record:true]). *)

val decided_coherence : Ba_sim.Engine.outcome -> violation list

val frozen_finishers : Ba_sim.Engine.outcome -> violation list

(** [termination_gap ~rounds_per_phase o] — Lemma 4's two-phase window. *)
val termination_gap : rounds_per_phase:int -> Ba_sim.Engine.outcome -> violation list

(** [standard ?rounds_per_phase ?allow_faults o] — all of the above that
    apply (record checks are skipped when the outcome carries no records; the
    termination gap is skipped unless [rounds_per_phase] is given; the
    {!benign_faults_run} audit is skipped when [allow_faults] is [true] — default
    [false], so fault injection never leaks into an experiment silently). *)
val standard :
  ?rounds_per_phase:int -> ?allow_faults:bool -> Ba_sim.Engine.outcome -> violation list
