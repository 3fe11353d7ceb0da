(** The committee killer against skeleton-based protocols (Algorithm 3,
    Chor–Coan, Rabin, Ben-Or — anything speaking {!Ba_core.Skeleton.msg}).
    Every other skeleton-message attack is a {!Strategy} catalog point
    lowered by {!Strategy.to_skeleton}. *)

(** [committee_killer ~config ~designated] — {!Strategy.committee_killer_point}
    lowered against the protocol's round structure [config] and its
    designated-flipper schedule, named ["committee-killer"]: the adaptive
    attack behind Theorem 2's worst-case [Θ(t²log n/n)] round shape. *)
val committee_killer :
  config:Ba_core.Skeleton.config ->
  designated:(phase:int -> int -> bool) ->
  (Ba_core.Skeleton.state, Ba_core.Skeleton.msg) Ba_sim.Adversary.t
