(** Named protocol × adversary setups.

    One constructor that pairs any protocol with any compatible adversary
    and returns a uniform runner, so experiments, the CLI tools and the
    examples never repeat the wiring. Protocol/adversary randomness is
    derived deterministically from the run seed. *)

type protocol_kind =
  | Alg3 of { alpha : float; coin_round : [ `Piggyback | `Extra ] }
      (** the paper's Algorithm 3 *)
  | Las_vegas of { alpha : float }
  | Chor_coan  (** fixed phase cap (whp variant) *)
  | Chor_coan_lv  (** cycling (Las Vegas) variant *)
  | Rabin
  | Local_coin
  | Phase_king
  | Eig
  | Ks_broadcast
      (** sampled-majority dynamics at full degree on the dense plane — the
          broadcast control arm of E21 *)
  | Ks_sample of { degree : int }
      (** King–Saia-style √n-sampled agreement on a
          {!Ba_sim.Topology.Sampled} plane; [degree = 0] means the default
          ⌊√n⌋ ({!Ba_sparse.Ks_agreement.default_degree}) *)
  | Word_budget of { degree : int }
      (** heartbeat-gated word-budget variant of [Ks_sample]; [degree = 0]
          means the default ⌊√n⌋ *)

(** A named adversary. Every kind is a point of the strategy IR
    (DESIGN.md §16): the named kinds are the
    {!Ba_adversary.Strategy} catalog points of the same name, and all kinds
    lower by one rule. A [Crash]-tactic genome lowers message-agnostically
    ({!Ba_adversary.Strategy.to_generic}), so it reaches every protocol,
    the sparse plane included; any other tactic lowers against
    skeleton-message protocols via {!Ba_adversary.Strategy.to_skeleton}
    with the protocol's real designated-flipper set. The adversary's
    randomness is [Rng.create (Splitmix64.mix (Int64.lognot seed))] of the
    run seed. *)
type adversary_kind =
  | Silent
  | Static_crash
  | Staggered_crash of int  (** crashes per round *)
  | Committee_killer
  | Crash_committee_killer
      (** crash-fault (Bar-Joseph–Ben-Or model) variant of the killer *)
  | Equivocator
  | Lone_finisher of int  (** target node *)
  | Random_noise of float  (** per-round corruption probability *)
  | Ir of Ba_adversary.Strategy.genome
      (** any strategy-IR point. Not CLI-parseable — built
          programmatically ([ba_attack], E23). *)

type input_pattern = Unanimous of int | Split | Near_threshold
    (** [Near_threshold]: the honest majority sits between [n-2t] and [n-t]
        — the regime where the lone-finisher attack bites *)

val protocol_name : protocol_kind -> string

val adversary_name : adversary_kind -> string

val inputs : input_pattern -> n:int -> t:int -> int array

(** [parse_protocol s], [parse_adversary s] — CLI-facing parsers; [Error]
    carries the list of valid names. *)
val parse_protocol : string -> (protocol_kind, string) result

val parse_adversary : string -> (adversary_kind, string) result

val all_protocol_names : string list

val all_adversary_names : string list

(** Benign fault injection for a setup ({!Ba_sim.Faults}), message-agnostic:
    link drop/duplication rates, payload-corruption rate, and crash-recovery
    silence windows. Corruption is realized by a skeleton-message mutator
    (vote / decided-flag / coin-flip bit flips), so [fs_corrupt > 0] is
    rejected for the non-skeleton protocols ([Phase_king], [Eig]). *)
type fault_spec = {
  fs_drop : float;
  fs_duplicate : float;
  fs_corrupt : float;
  fs_silences : Ba_sim.Faults.silence list;
}

(** All rates zero, no silences — equivalent to passing no spec. *)
val no_faults : fault_spec

type run = {
  run_protocol : string;
  run_adversary : string;
  rounds_per_phase : int option;  (** for phase-structured protocols *)
  default_max_rounds : int;
  exec :
    ?max_rounds:int ->
    ?congest_limit_bits:int ->
    record:bool ->
    inputs:int array ->
    seed:int64 ->
    unit ->
    Ba_sim.Engine.outcome;
}

(** [make ~protocol ~adversary ~n ~t] — builds the pair.
    @raise Invalid_argument for incompatible pairs (the skeleton-message
    adversaries against [Phase_king]/[Eig]) or out-of-range [n]/[t] (e.g.
    [Phase_king] needs [n > 4t]). *)
val make : protocol:protocol_kind -> adversary:adversary_kind -> n:int -> t:int -> run

(** [make_faulty ~faults ~protocol ~adversary ~n ~t] — {!make} with benign
    fault injection threaded into every [exec] of the setup.
    @raise Invalid_argument additionally for [fs_corrupt > 0] against a
    non-skeleton protocol, or a malformed {!fault_spec}. *)
val make_faulty :
  faults:fault_spec -> protocol:protocol_kind -> adversary:adversary_kind -> n:int -> t:int -> run

(** [make_capped ~faults ~limit ~protocol ~adversary ~n ~t] — {!make_faulty}
    with the adversary's corruption budget clamped to [limit]
    ({!Ba_adversary.Generic.capped}). The fault experiments (E18/E19) use
    this to split the protocol's provisioned budget [t] between Byzantine
    corruptions and injected benign faults, so faulty links/nodes are
    counted against [t].
    @raise Invalid_argument if [limit < 0]. *)
val make_capped :
  faults:fault_spec ->
  limit:int ->
  protocol:protocol_kind ->
  adversary:adversary_kind ->
  n:int ->
  t:int ->
  run

(** {1 Asynchronous setups}

    The asynchronous mirror of {!make}: one constructor pairing an async
    protocol with a scheduling adversary, whose runner returns the unified
    substrate outcome ({!Ba_sim.Run.outcome}) directly — the message type
    is existentially hidden inside the closure, so harness code
    ([Experiment.monte_carlo_view ~view:Fun.id], {!Ba_harness.Supervisor})
    consumes async setups with zero engine-specific plumbing. *)

type async_protocol_kind =
  | Async_ben_or  (** Ben-Or binary consensus ([n > 5t]) *)
  | Async_bracha of { broadcaster : int }  (** Bracha reliable broadcast ([n > 3t]) *)

(** A named scheduler. Each kind is the {!Ba_adversary.Strategy} async
    catalog point of the same name ([Ab_fifo] for [Fifo_sched]), lowered by
    {!Ba_async.Async_adv.of_strategy_ben_or} against Ben-Or and
    {!Ba_async.Async_adv.of_strategy} against Bracha. *)
type async_scheduler_kind =
  | Fifo_sched  (** oldest pending message first *)
  | Random_sched  (** uniformly random pending message *)
  | Delayer_sched of int list  (** starve the victims' inbound messages *)
  | Balancer_sched  (** Ben-Or-aware vote balancer (Ben-Or only) *)
  | Splitter_sched  (** Ben-Or-aware vote splitter (Ben-Or only) *)

(** CLI-facing parsers; [Error] carries the list of valid names. ["rbc"]
    parses to [Async_bracha { broadcaster = 0 }]; ["delayer"] to
    [Delayer_sched [0]]. *)
val parse_async_protocol : string -> (async_protocol_kind, string) result

val parse_async_scheduler : string -> (async_scheduler_kind, string) result

val all_async_protocol_names : string list

val all_async_scheduler_names : string list

type async_run = {
  arun_protocol : string;
  arun_scheduler : string;
  arun_exec :
    ?max_steps:int ->
    ?max_delay:int ->
    ?trace:Ba_sim.Run.trace ->
    inputs:int array ->
    seed:int64 ->
    unit ->
    Ba_sim.Run.outcome;
      (** One run: the engine seed is [seed]; the scheduler's RNG stream is
          [Rng.create (Splitmix64.mix seed)] (the derivation E17 has always
          used, kept byte-stable). The outcome's span is
          [Ba_sim.Run.Steps _]. *)
}

(** [make_async ?faults ~protocol ~scheduler ~n ~t ()] — builds the pair.
    When [faults] is given, link faults are threaded into scheduler-visible
    delivery ({!Ba_sim.Faults.apply_async}); payload corruption uses a
    protocol-specific benign mutator (vote flips via the Ben-Or
    classify/mk_* surface; constructor-value flips for Bracha).
    @raise Invalid_argument for incompatible pairs
    ([Balancer_sched]/[Splitter_sched] against Bracha), an out-of-range
    broadcaster or delayer victim, out-of-range [n]/[t], or a malformed
    {!fault_spec}. *)
val make_async :
  ?faults:fault_spec ->
  protocol:async_protocol_kind ->
  scheduler:async_scheduler_kind ->
  n:int ->
  t:int ->
  unit ->
  async_run
