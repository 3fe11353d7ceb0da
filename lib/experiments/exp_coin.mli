(** E1/E2 — the common-coin guarantees (Theorem 3, Corollary 1). *)

(** Registry descriptors for E1 and E2. *)
val experiments : Ba_harness.Registry.descriptor list
