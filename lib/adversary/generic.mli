(** Protocol-agnostic adversary constructors.

    These never fabricate payloads, so they work against any protocol:
    corrupted nodes simply fall silent (which in the synchronous model is
    the crash behaviour — Bar-Joseph & Ben-Or's lower bound already holds
    for such adaptive crash faults). Other crash schedules are
    {!Strategy} catalog points lowered by {!Strategy.to_generic}. *)

(** [silent] — corrupts nobody (the honest run). *)
val silent : ('s, 'm) Ba_sim.Adversary.t

(** [static_crash ~rng] — {!Strategy.static_crash_point}, named
    ["static-crash"]: corrupts [t] uniformly random nodes in round 1; they
    stay silent forever. *)
val static_crash : rng:Ba_prng.Rng.t -> ('s, 'm) Ba_sim.Adversary.t

(** [capped ~limit adv] — [adv], but restricted to at most [limit]
    corruptions in total (the inner adversary sees the reduced budget, so
    its planning stays coherent). Realizes the "only [q < t] nodes are
    actually corrupted" setting of Theorem 2's early-termination claim. *)
val capped : limit:int -> ('s, 'm) Ba_sim.Adversary.t -> ('s, 'm) Ba_sim.Adversary.t
