(** E18–E19 — fault-injection robustness (ISSUE 3; DESIGN.md §5, §9).

    Both experiments drive {!Ba_sim.Faults} through {!Setups.make_capped}:
    the injected benign faults are charged against the protocol's
    provisioned budget [t], and the Byzantine adversary keeps only the
    remainder. *)

(** E18 — Algorithm 3 (Las Vegas form) vs Chor–Coan under rising link-fault
    rates (drop/duplicate/corrupt). The synchronous model assumes reliable
    links, so the fault-free control arm must stay perfect ([Fail]
    otherwise); the faulted arms quantify agreement/termination breakdown
    outside the model ([Shape_ok], upgrading to [Pass] on a clean sweep). *)
val e18 :
  ?policy:Ba_harness.Supervisor.policy -> ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

(** E19 — crash-recovery gauntlet: rotating send-omission waves (silent for
    rounds [a, b), then resumed) with the full {!Ba_trace.Checker.standard}
    battery — including the Lemma 4 termination-gap window — enforced. *)
val e19 :
  ?policy:Ba_harness.Supervisor.policy -> ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

(** Registry descriptors for E18–E19 (tag: robustness). *)
val experiments : Ba_harness.Registry.descriptor list
