(** E17/E20 — the asynchronous plane: the async contrast and async
    robustness under link faults. *)

(** Registry descriptors for E17 and E20. *)
val experiments : Ba_harness.Registry.descriptor list
