(** The paper's claims as runnable experiments (E1–E23 in DESIGN.md §5).

    The experiments live in the per-claim modules ({!Exp_coin},
    {!Exp_scaling}, {!Exp_complexity}, {!Exp_baselines}, {!Exp_ablations},
    {!Exp_async}, {!Exp_robustness}, {!Exp_sparse}, {!Exp_attack}), each of
    which publishes {!Ba_harness.Registry.descriptor}s; this module
    assembles them. Every experiment returns a structured
    {!Ba_harness.Report.t}, is deterministic in its seed, and shrinks its
    sizes/trials by roughly 4x in the quick profile. *)

(** The full E1–E23 registry, in numeric id order: the one experiment list,
    driven by [ba_sweep] and checked against DESIGN.md §5 by the tests. *)
val registry : Ba_harness.Registry.t
