(** The shared Rabin-style phase machine.

    Rabin's dealer protocol, Chor–Coan, and the paper's Algorithm 3 share
    one structure and differ only in where the phase coin comes from. Each
    phase is two broadcast rounds:

    - {b Round 1}: broadcast [(i, 1, val, decided)]. On receipt: if at least
      [n - t] messages carry one identical value [b], set [val := b],
      [decided := true]; otherwise [decided := false] (Alg. 3 lines 7–16).
    - {b Round 2}: broadcast [(i, 2, val, decided)], with the phase's coin
      flips piggybacked by designated flippers. On receipt:
      {ul
      {- [≥ n - t] messages [(i, 2, b, True)]: [val := b]; finish
         (Case 1, lines 21–23);}
      {- [≥ t + 1] such messages: [val := b], [decided := true] (Case 2);}
      {- otherwise [val := coin of phase i], [decided := false] (Case 3).}}

    {b Coin piggybacking.} The paper counts two rounds per phase while the
    coin flip (Algorithm 2) is itself a broadcast; the Lemma 5 proof
    requires the phase's assigned value [b_i] (fixed by round 1) to be
    independent of the round-2 coin flips — i.e. flips travel with the
    round-2 broadcast, which is how we implement it. An ablation
    ([~coin_round:`Extra]) runs the coin as a separate third round instead.

    {b Termination.} On finishing in phase [i], the paper has the node
    broadcast once more and return. Counting messages per (phase, round)
    type, a single extra broadcast is not enough when the adversary spends
    its whole budget and engineers a lone finisher (the remaining [n-t-1]
    honest round-2 broadcasts can never reach the [n - t] threshold again).
    We therefore implement the standard realization — a finished node keeps
    broadcasting its frozen [(val, True)] through the whole next phase and
    then halts — which makes the counting in Lemma 4's proof exact: the
    finisher terminates in phase [i + 1] and everyone else by phase [i + 2],
    precisely the lemma's statement. *)

type sub = R1 | R2 | RC  (** RC only exists in the [`Extra] coin-round ablation *)

type msg = {
  m_phase : int;
  m_sub : sub;
  m_val : int;
  m_decided : bool;
  m_flip : int option;  (** [±1], from designated flippers in the coin round *)
}

(** Where phase coins come from. *)
type coin_spec =
  | Flippers of (phase:int -> int -> bool)
      (** [pred ~phase v]: node [v] is a designated flipper of [phase];
          receivers sum validated flips of designated senders and take the
          sign (Algorithm 2) *)
  | Dealer of (int -> int)
      (** trusted external dealer: a shared function phase -> bit (Rabin);
          must be the same closure for all nodes *)
  | Private  (** each undecided node flips its own local coin (Ben-Or style) *)

type config = {
  cfg_name : string;
  cfg_phases : int;  (** [c]; with [cfg_cycle] the committee schedule cycles mod [c] *)
  cfg_coin : coin_spec;
  cfg_cycle : bool;  (** Las Vegas: never return at the phase cap *)
  cfg_coin_round : [ `Piggyback | `Extra ];
  cfg_termination : [ `Extra_phase | `Literal ];
      (** [`Extra_phase] (the default everywhere in this library): a
          finished node participates through the whole next phase.
          [`Literal]: the paper's text read literally — broadcast once in
          round 1 of the next phase, then halt. The literal reading is
          exploitable: see {!Ba_adversary.Strategy.lone_finisher_point} and
          experiment E15, where the remaining honest nodes stall below
          every threshold after a budget-exhausting lone-finish attack. *)
}

type state

val make : config -> (state, msg) Ba_sim.Protocol.t

(** [rounds_per_phase cfg] is 2, or 3 with the [`Extra] ablation. *)
val rounds_per_phase : config -> int

(** [phase_of_round cfg ~round] maps an engine round (1-based) to its
    (phase, sub). *)
val phase_of_round : config -> round:int -> int * sub

(** [coin_sub cfg] is the sub-round carrying the coin flips ([R2] when
    piggybacked, [RC] in the extra-round ablation). *)
val coin_sub : config -> sub

(** The protocol's {!Ba_sim.Plane.code} packing (its [codec] field),
    exported so tests can build planes and check kernel equivalence. *)
val msg_code : msg -> int

(** Accessors used by tests. *)
val state_val : state -> int

val state_decided : state -> bool

val state_finished : state -> bool

(** [state_certified st] — [Some v] iff the node finished through the
    protocol's own Case-1 rule (its finish countdown is running or ran out),
    as opposed to being cut off by the phase cap. The exhaustive checker's
    agreement property is conditioned on a certified finisher existing:
    a Las-Vegas run truncated at the cap with nobody certified is allowed
    to halt with split values, but one certified finish obligates every
    honest output to match it. *)
val state_certified : state -> int option

(** [state_encode st] — injective textual encoding of the full node state,
    used by [Ba_verify.Exhaust] to memoize explored global states. *)
val state_encode : state -> string
