(** Typed adversary-strategy IR (DESIGN.md §16).

    Every adversary this repository knows how to field — the protocol-
    agnostic crash schedules, the rushing coin attacks, the skeleton-message
    attacks, the asynchronous scheduling biases, and the send-omission
    placement half of a {!Ba_sim.Faults} plan — is a point in one finite,
    seed-free parameter {!genome}:

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

    The interpreter hosts the one copy of each attack's logic: every named
    attack is a catalog point below, lowered on demand. The few remaining
    constructors in {!Generic}, {!Skeleton_adv} and {!Ba_async.Async_adv}
    ([static_crash], [committee_killer], [random_scheduler]) are
    one-line lowerings of their points; [test/test_setups.ml] pins the
    named points' runs. *)

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
    {!equivocator_point} uses [{ ep_w0 = 1; ep_w1 = 1; ep_decided_late =
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

    Each named point is one of the repository's named attacks, fielded by
    lowering it: {!to_generic} for the crash schedules, {!to_coin} against
    the standalone coins, {!to_skeleton} against skeleton-message
    protocols, {!Ba_async.Async_adv.of_strategy} /
    {!Ba_async.Async_adv.of_strategy_ben_or} for the async biases. Pass
    [~name] to give the adversary the attack's name (["committee-killer"],
    ["staggered-crash-2"], ...); {!Ba_experiments.Setups} does this for
    every named kind. *)

(** Corrupts nobody, sends nothing: the honest run. *)
val silent_point : genome

(** Corrupts [t] uniformly random nodes in round 1; they stay silent
    forever. The classic static-adversary baseline. *)
val static_crash_point : genome

(** Adaptively crashes up to [per_round] random live honest nodes every
    round until the budget runs out: the adaptive crash-fault pattern of
    the Bar-Joseph–Ben-Or bound. [per_round < 0] fails {!validate}. *)
val staggered_crash_point : per_round:int -> genome

(** Deterministically crashes the given nodes at the given round
    (failure-injection tests); needs no [~rng]. *)
val crash_at_point : round:int -> victims:int list -> genome

(** Rushing attack on the standalone common coins (Algorithms 1 and 2),
    lowered by {!to_coin}: the worst case of Theorem 3's setting. It sees
    the honest designated flips, computes their sum [X], and corrupts the
    minimum number of majority-side flippers needed to bring the
    receivers' reachable sums astride zero; corrupted flippers then send
    [+1] to even-numbered nodes and [-1] to odd ones. When no affordable
    split exists it stays silent (the common value cannot be changed —
    corrupting a flipper both removes its flip and adds an equivocation
    slot, leaving the reachable interval's relevant endpoint unmoved).
    Conventionally named ["coin-splitter"]. *)
val coin_splitter_point : genome

(** Statically corrupts its whole budget among designated nodes in round 1
    and always pushes [toward] (0 or 1; anything else fails {!validate}):
    measures how far Definition 2(B)'s conditional bias can be driven.
    Needs [~rng]; conventionally named ["coin-biaser-<toward>"]. *)
val coin_biaser_point : toward:int -> genome

(** The strongest known adaptive attack on Algorithm 3 and the one that
    exhibits the worst-case [Θ(t²log n/n)] round shape. Every coin round
    it:

    + reads the phase's assigned value [b_i] (the value any honest node
      decided on in round 1 — Lemma 3 makes it unique);
    + sums the honest committee flips [X] and counts already-corrupted
      committee members [e];
    + if the coin, left alone, would come up common and equal to [b_i] (or
      no [b_i] exists, in which case any common coin unifies the honest
      nodes), it corrupts the minimum number of majority-side committee
      flippers needed to make the receivers' sums straddle zero and
      equivocates [+1]/[-1] to even/odd receivers, keeping the honest nodes
      split;
    + otherwise it saves its budget (a common coin opposite to [b_i], or an
      already-splittable sum, costs it nothing).

    Killing one coin costs [Ω(√s)] corruptions in expectation, so the budget
    dies after [O(t/√s)] phases — exactly the counting argument in the proof
    of Theorem 2. *)
val committee_killer_point : genome

(** The committee killer restricted to {e crash} faults, i.e. the
    Bar-Joseph–Ben-Or fault model: a node can be crashed mid-round so that
    its final broadcast reaches only an adversary-chosen subset of
    receivers, but nothing can be forged. Killing a coin then requires
    making some receivers' sums straddle zero using deletions only —
    receiver sums span [X - k, X] after crashing [k] majority-side
    flippers, so the cost is [|X| + 1] corruptions instead of the Byzantine
    [|X|/2 + 1] (the equivocation lever is gone). Used by experiment E14 to
    contrast fault models under the same protocol. *)
val crash_committee_killer_point : genome

(** Corrupts its whole budget in round 1 (random victims) and thereafter
    sends well-formed but two-faced messages: value [dst mod 2] to each
    receiver, with decided flags and flips chosen to maximize confusion. A
    threshold-robustness stress. *)
val equivocator_point : genome

(** Tries to push node [target] (and only it) over the [n - t] finish
    threshold by sending it fake decided-votes while staying silent to
    everyone else, then lets the rest starve. Exercises the
    early-termination corner behind Lemma 4; with the extra-phase
    termination realization, agreement must still hold. *)
val lone_finisher_point : target:int -> genome

(** Each round, with probability [corrupt_prob], corrupts one random live
    honest node; corrupted nodes send independently random well-formed
    messages (random nearby phase, random sub, value, decided flag and
    flip) to every receiver. Fuzzing fodder for parser/threshold
    robustness. *)
val random_noise_point : corrupt_prob:float -> genome

(** Async: delivers a uniformly random pending message each step; corrupts
    nobody. The "fair but unhelpful" network. *)
val async_uniform_point : genome

(** Async: starves messages sent by [victims] for as long as the
    bounded-delay rule allows, delivering everyone else's messages first
    (FIFO among them). Tests liveness under maximal skew. *)
val async_delayer_point : victims:int list -> genome

(** Async, Ben-Or only: a pure {e scheduling} attack (no corruptions at
    all). Using full information about each receiver's vote tallies, it
    preferentially delivers R-votes for the receiver's minority value and
    withholds the majority's, feeding every node a balanced diet so nobody
    assembles the [> (n+t)/2] majority that produces a non-[?] P-vote,
    forcing a coin flip every round. Bounded delay eventually breaks the
    starvation, but the expected round count under this scheduler is the
    "asynchrony is harder" cost made visible with zero Byzantine nodes. *)
val async_balancer_point : genome

(** Async, Ben-Or only: corrupts the budget at step 1 and keeps injecting
    contradictory R/P votes (value [dst mod 2]) for the receiver's current
    round, maximizing disagreement pressure within [t < n/5]. *)
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
    ["ir:push1r/burst1/desig"]. Named attacks override it with their
    attack names ("committee-killer", ...) via the lowerings' [?name]. *)
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
