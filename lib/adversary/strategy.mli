(** Typed adversary-strategy IR (DESIGN.md §16).

    Every adversary this repository knows how to field — the protocol-
    agnostic crash schedules of {!Generic}, the rushing coin attacks of
    {!Coin_adv}, the skeleton-message attacks of {!Skeleton_adv}, the
    asynchronous scheduling biases of {!Ba_async.Async_adv}, and the
    send-omission placement half of a {!Ba_sim.Faults} plan — is a point
    in one finite, seed-free parameter {!genome}:

    - {b corruption-timing schedule} ({!timing}): when the budget is spent;
    - {b targeting rule} ({!targeting}): whom it is spent on;
    - {b tactic} ({!tactic}): what corrupted nodes say — crash silence, the
      reactive coin split, coin pushing, the equivocation pattern table with
      vote-skew weights, threshold starvation, or chaos;
    - {b silence placement} ({!silence_shape}): the fault-plan
      crash-recovery wave schedule;
    - {b async scheduling bias} ({!async_bias}): the scheduler policy for
      the asynchronous engine.

    A genome contains no RNG state and no closures: it is data, so it can
    be serialized ({!to_json}), compared ({!encode}), enumerated and
    mutated ({!Search}). Behaviour comes from the deterministic
    interpreters ({!to_generic}, {!to_coin}, {!to_skeleton},
    {!to_silences}; {!Ba_async.Async_adv.of_strategy} for the async plane):
    every run is a pure function of [(genome, rng seed, engine seed)].

    The legacy constructors in {!Generic}, {!Coin_adv}, {!Skeleton_adv} and
    {!Ba_async.Async_adv} are thin wrappers over the {!catalog} points
    below — the interpreter hosts the one copy of each attack's logic, so
    the named points are byte-identical to the pre-IR implementations (the
    refactor's correctness bar; see [test/test_strategy.ml]). *)

(** When corruptions happen. *)
type timing =
  | T_never  (** never corrupt on schedule (tactic may still corrupt) *)
  | T_burst of int
      (** spend the whole remaining budget in the given round (1-based) *)
  | T_staggered of { per_round : int; from_round : int }
      (** up to [per_round] corruptions every round from [from_round] on *)
  | T_random of float
      (** each round, with the given probability, corrupt one uniformly
          random live honest node (the {!Generic} noise schedule) *)

(** Whom a scheduled corruption hits. *)
type targeting =
  | Tg_sample  (** uniform sample over all [n] node ids *)
  | Tg_live_shuffle  (** shuffled live honest nodes *)
  | Tg_designated_shuffle
      (** shuffled non-corrupted designated nodes (committee members /
          flippers; everyone when the lowering has no designated set) *)
  | Tg_fixed of int list  (** exactly these nodes, in order, unclamped *)
  | Tg_spare of int
      (** shuffled live honest nodes, never the given node (the
          threshold-starver keeps its victim honest) *)

(** Equivocation pattern table with vote-skew weights: how a two-faced
    corrupted node shapes the skeleton messages it sends to receiver
    [dst]. The vote is skewed [ep_w0 : ep_w1] between 0 and 1 by receiver
    id ([dst mod (w0+w1) < w0] votes 0); decided flags are asserted on
    non-R1 sub-rounds when [ep_decided_late]; piggybacked coin flips split
    the receivers into blocks of [ep_flip_mod] ids (first half sees [+1]).
    The legacy equivocator is [{ ep_w0 = 1; ep_w1 = 1; ep_decided_late =
    true; ep_flip_mod = 4 }]. *)
type equiv_pattern = {
  ep_w0 : int;
  ep_w1 : int;
  ep_decided_late : bool;
  ep_flip_mod : int;
}

(** What corrupted nodes do with their voice. *)
type tactic =
  | Crash  (** corrupted nodes fall silent (send-omission) *)
  | Coin_split of { parity : int }
      (** the reactive committee/coin killer: observe the designated flips,
          corrupt the cheapest majority-side set that makes receiver sums
          straddle zero, equivocate [+1]/[-1] by receiver parity
          ([dst mod 2 = parity] sees [+1]) *)
  | Coin_split_crash
      (** the killer restricted to crash faults: mid-round deletions whose
          suppressed broadcasts are replayed to half the receivers *)
  | Coin_push of { toward : int; rushing : bool }
      (** push every observed flip toward bit [toward]; when [rushing],
          corrupt the designated flippers that flipped {e against} the push
          this round (ascending id) instead of relying on the schedule *)
  | Equivocate of equiv_pattern  (** the pattern table above *)
  | Starve_threshold of { target : int }
      (** the lone-finisher: boost exactly [n - 2t] nodes over the round-1
          threshold, then feed fake decided-votes to [target] only *)
  | Chaos of { drop_prob : float }
      (** corrupted nodes send independently random well-formed messages,
          staying silent with probability [drop_prob] per link *)

(** Asynchronous scheduling bias (lowered by
    {!Ba_async.Async_adv.of_strategy}). *)
type async_bias =
  | Ab_fifo  (** always deliver the oldest pending message *)
  | Ab_uniform  (** uniform random pending pick *)
  | Ab_avoid of int list  (** starve the listed senders (delayer) *)
  | Ab_balance
      (** feed every Ben-Or receiver its minority value, withholding
          majorities, so nobody assembles a supermajority *)
  | Ab_split of { parity : int }
      (** corrupt at step 1 and inject contradictory current-round votes,
          value [(dst + parity) mod 2] *)

(** Rotating send-omission wave placement: wave [j] (of [sw_waves])
    silences the [sw_group] consecutive nodes starting at [j * sw_group]
    for rounds [[sw_start + j*sw_len, sw_start + (j+1)*sw_len)]. *)
type silence_shape = {
  sw_group : int;
  sw_len : int;
  sw_waves : int;
  sw_start : int;
}

type genome = {
  g_timing : timing;
  g_target : targeting;
  g_tactic : tactic;
  g_silences : silence_shape option;
  g_async : async_bias;
}

(** The neutral point: never corrupt, crash tactic, no silences, FIFO
    async delivery. All catalog points are records updates of [base]. *)
val base : genome

(** {2 Catalog points}

    Each named point reproduces one legacy constructor exactly. *)

val silent_point : genome

val static_crash_point : genome

val staggered_crash_point : per_round:int -> genome

val crash_at_point : round:int -> victims:int list -> genome

val coin_splitter_point : genome

val coin_biaser_point : toward:int -> genome

val committee_killer_point : genome

val crash_committee_killer_point : genome

val equivocator_point : genome

val lone_finisher_point : target:int -> genome

val random_noise_point : corrupt_prob:float -> genome

val async_uniform_point : genome

val async_delayer_point : victims:int list -> genome

val async_balancer_point : genome

val async_splitter_point : genome

(** [catalog ~t] — the named sync strategy points E23 measures the searched
    strategies against (the best-known fixed attacks; [t] sizes the
    threshold-starver's target and the staggered rate). *)
val catalog : t:int -> (string * genome) list

(** {2 Validation, naming, serialization} *)

(** [validate g] — [Error msg] when a parameter is outside its domain
    (negative rates, empty skew weights, odd flip mod, malformed silence
    shape ...). Lowerings call this and raise [Invalid_argument]. *)
val validate : genome -> (unit, string) result

(** Canonical compact display name, e.g.
    ["ir:push1r/burst1/desig"]. Catalog wrappers override it with the
    legacy names ("committee-killer", ...) via the lowerings' [?name]. *)
val name : genome -> string

(** Canonical one-line JSON object (used as the dedup key by {!Search} and
    embedded verbatim in [ba_attack]'s reports). *)
val to_json : genome -> string

(** [encode g] — canonical comparison/dedup key ([to_json] today). *)
val encode : genome -> string

(** {2 Lowerings (the deterministic interpreter)}

    [rng] is required only by genomes whose schedule or tactic draws
    randomness ([Tg_sample], [Tg_live_shuffle], [Tg_designated_shuffle],
    [Tg_spare], [T_random], [Chaos]); lowering such a genome without [~rng]
    raises [Invalid_argument]. All raise [Invalid_argument] on a genome
    that fails {!validate} or whose tactic does not fit the message
    family. *)

(** Message-agnostic lowering: only [Crash] tactics (nothing is ever
    forged, so it works against any protocol — and any topology, which is
    how searched crash schedules reach the sparse plane). *)
val to_generic : ?name:string -> ?rng:Ba_prng.Rng.t -> genome -> ('s, 'm) Ba_sim.Adversary.t

(** Lowering against the standalone common-coin protocols
    ({!Ba_core.Common_coin.msg}): [Crash], [Coin_split], [Coin_push]. *)
val to_coin :
  ?name:string ->
  ?rng:Ba_prng.Rng.t ->
  genome ->
  designated:(int -> bool) ->
  ('s, Ba_core.Common_coin.msg) Ba_sim.Adversary.t

(** Lowering against skeleton-message protocols
    ({!Ba_core.Skeleton.msg}): every tactic. *)
val to_skeleton :
  ?name:string ->
  ?rng:Ba_prng.Rng.t ->
  genome ->
  config:Ba_core.Skeleton.config ->
  designated:(phase:int -> int -> bool) ->
  (Ba_core.Skeleton.state, Ba_core.Skeleton.msg) Ba_sim.Adversary.t

(** [to_silences shape] — the fault-plan placement lowering: the rotating
    send-omission wave schedule as {!Ba_sim.Faults.silence} windows
    (E19's gauntlet is [to_silences { sw_group = max 1 (t/4); sw_len = 4;
    sw_waves = 4; sw_start = 1 }]). *)
val to_silences : silence_shape -> Ba_sim.Faults.silence list
