(** E18–E19 — fault-injection robustness (DESIGN.md §5, §9).

    Both experiments drive {!Ba_sim.Faults} through {!Setups.make_capped}:
    the injected benign faults are charged against the protocol's
    provisioned budget [t], and the Byzantine adversary keeps only the
    remainder. *)

(** Registry descriptors for E18–E19 (tag: robustness). *)
val experiments : Ba_harness.Registry.descriptor list
