(** Chor & Coan (1985): the long-standing [O(t / log n)]-round randomized
    baseline the paper improves on.

    Nodes are partitioned by ID into groups of size [g = Θ(log n)]; epoch
    [i]'s coin is produced by group [(i-1) mod #groups]: every group member
    flips and broadcasts, and all nodes take the sign of the sum (we reuse
    the paper's Algorithm 2 machinery, which also makes the baseline safe
    against a rushing adversary — the paper notes Chor–Coan can be adapted
    this way). A phase is good when the group's honest flips are unanimous
    enough to swamp its Byzantine members, which happens with probability
    [≥ 2^{-g}] per phase; the adversary must plant [≥ g/2] Byzantine nodes
    in a group to own it, so at most [2t/g] groups are ruined — the
    [O(t/log n)] expected-round bound.

    Structurally this is the paper's skeleton with a different committee
    schedule: exactly the observation (Section 3) that Algorithm 3 with
    [c = 3αt/log n] committees degenerates to Chor–Coan. *)

type t = {
  protocol : (Ba_core.Skeleton.state, Ba_core.Skeleton.msg) Ba_sim.Protocol.t;
  groups : Ba_core.Committee.t;
  config : Ba_core.Skeleton.config;
  n : int;
  t : int;
}

(** [make ?beta ?gamma ?cycle ~n ~t ()] — group size [⌈β log2 n⌉] (default
    [β = 1]), phase cap [max(⌈γ log2 n⌉, ⌈6t/g⌉)] (default [γ = 4]);
    [cycle] (default false) switches to the Las Vegas form.
    @raise Invalid_argument unless [n >= 3t + 1]. *)
val make : ?beta:float -> ?gamma:float -> ?cycle:bool -> n:int -> t:int -> unit -> t

(** [designated inst] — the flipper schedule, for adversary constructors. *)
val designated : t -> phase:int -> int -> bool

val round_bound : t -> int
