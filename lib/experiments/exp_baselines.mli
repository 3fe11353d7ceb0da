(** E6/E7/E10/E12/E16 — robustness matrix and baseline comparisons.

    E6: validity + agreement invariants across every protocol × adversary ×
    input pattern. E7: the "agreement always holds" claim as its own
    aggregate (fail-fast off, failures counted instead of aborting).
    E10: the baseline ladder (deterministic → Chor–Coan → Algorithm 3 →
    BJB bound). E12: the related-work sampling-majority dynamics.
    E16: Feige lightest-bin election, static vs adaptive adversary. *)

val e6 : ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

val e7 : ?policy:Ba_harness.Supervisor.policy -> ?domains:int -> ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

val e10 : ?policy:Ba_harness.Supervisor.policy -> ?domains:int -> ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

val e12 : ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

val e16 : ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

(** Registry descriptors for E6, E7, E10, E12, E16. *)
val experiments : Ba_harness.Registry.descriptor list
