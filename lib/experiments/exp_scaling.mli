(** E3/E5/E9/E13 — round-complexity scaling claims. *)

(** Registry descriptors for E3, E5, E9, E13. *)
val experiments : Ba_harness.Registry.descriptor list
