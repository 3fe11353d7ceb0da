(** E17 — the asynchronous contrast from the paper's Section 1.3:
    classic async Ben-Or under an adversarial scheduler + splitter vs
    synchronous Algorithm 3 at the same [(n, t)]. Async trials run through
    the unified substrate ({!Setups.make_async} +
    {!Ba_harness.Supervisor.run_trial}) and report per-size delivered-bit
    complexity alongside deliveries. *)

val e17 : ?policy:Ba_harness.Supervisor.policy -> ?domains:int -> ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

(** E20 — the asynchronous mirror of E18: Ben-Or and Bracha RBC under
    benign link faults (drop / duplicate / corrupt) injected into
    scheduler-visible delivery, with agreement and validity audited on
    every trial via the substrate checkers. Termination under faults is
    reported, not demanded; the fault-free control arm must be perfect
    (verdict [Fail] otherwise). [domains] spreads trials across OCaml
    domains ({!Ba_harness.Experiment.monte_carlo_view}); aggregates are
    domain-count independent. *)

val e20 :
  ?policy:Ba_harness.Supervisor.policy ->
  ?quick:bool ->
  seed:int64 ->
  domains:int ->
  unit ->
  Ba_harness.Report.t

(** Registry descriptors for E17 and E20. *)
val experiments : Ba_harness.Registry.descriptor list
