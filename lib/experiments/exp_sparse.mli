(** E21–E22: the sparse message plane — communication regimes and scaling
    of the sampled protocol family (DESIGN.md §13). *)

(** E21 — the same sampled-majority dynamics under three delivery regimes
    (dense broadcast / √n-sampled / word-budget on the sampled plane),
    comparing engine-metered bits, words and rounds-to-decide. *)
val e21 : ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

(** E22 — total bits vs n for ks-sample at degree ⌈√n⌉: a log-log fit whose
    exponent should land near 1.5, decisively below the dense plane's 2. *)
val e22 : ?quick:bool -> seed:int64 -> unit -> Ba_harness.Report.t

val experiments : Ba_harness.Registry.descriptor list
