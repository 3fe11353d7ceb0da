(** E6/E7/E10/E12/E16 — robustness matrix and baseline comparisons. *)

(** Registry descriptors for E6, E7, E10, E12, E16. *)
val experiments : Ba_harness.Registry.descriptor list
