(** E21–E22: the sparse message plane — communication regimes and scaling
    of the sampled protocol family (DESIGN.md §13). *)

(** Registry descriptors for E21 and E22. *)
val experiments : Ba_harness.Registry.descriptor list
