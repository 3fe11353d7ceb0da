(** E3/E5/E9/E13 — round-complexity scaling claims.

    E3: Theorem 2's shape (quadratic in [t] below the crossover; log–log
    fitted exponent). E5: early termination — rounds track the actual
    corruptions [q], not the budget [t]. E9: the Las Vegas variant's round
    distribution (always terminates). E13: near-optimality against the
    Bar-Joseph–Ben-Or lower bound at [t = √n]. *)

val e3 : ?policy:Ba_harness.Supervisor.policy -> ?domains:int -> ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

val e5 : ?policy:Ba_harness.Supervisor.policy -> ?domains:int -> ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

val e9 : ?policy:Ba_harness.Supervisor.policy -> ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

val e13 : ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

(** Registry descriptors for E3, E5, E9, E13. *)
val experiments : Ba_harness.Registry.descriptor list
