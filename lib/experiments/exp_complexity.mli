(** E4/E8 — complexity comparisons against Chor–Coan. *)

(** Registry descriptors for E4 and E8. *)
val experiments : Ba_harness.Registry.descriptor list
