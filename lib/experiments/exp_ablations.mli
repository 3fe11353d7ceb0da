(** E11/E14/E15 — ablations over design choices and fault models. *)

(** Registry descriptors for E11, E14, E15. *)
val experiments : Ba_harness.Registry.descriptor list
