(** King–Saia-style sampled-majority agreement (DESIGN.md §13).

    Sampled majority dynamics on a {!Ba_sim.Topology.Sampled} plane: every
    round each node broadcasts [(round, value, decided)] to its sampled
    peers, adopts the majority of the sampled votes it received, and
    decides after [decide_streak] consecutive >= 7/8 majorities for the
    same value — or when a strict majority of its nominal sample is already
    broadcasting decided (the termination echo). With [degree = n - 1] on
    the dense plan this degrades to plain broadcast majority: the dense
    control arm of E21.

    Monte-Carlo guarantees: validity is deterministic (a unanimous
    population can only sample its own value); agreement and termination
    hold with high probability over the sampling streams. A run that
    exhausts its round cap reports [completed = false] — it never emits a
    conflicting output. *)

type msg = { g_round : int; g_val : int; g_decided : bool }

type state = {
  s_val : int;
  s_streak : int;  (** consecutive overwhelming majorities for [s_val] *)
  s_decided : bool;  (** currently asserting an overwhelming majority *)
  s_countdown : int option;
      (** [Some k]: decided; broadcast the frozen value for [k] more recv
          steps, then halt *)
  s_halted : bool;
  s_output : int option;
  s_round : int;
}

type inst = {
  protocol : (state, msg) Ba_sim.Protocol.t;
  degree : int;  (** nominal per-round sample size *)
  decide_streak : int;
  round_bound : int;  (** suggested engine round cap *)
}

(** ⌊√n⌋ (the floor square root: 90 at n = 8192) clamped to [1, n-1] —
    the King–Saia sample size. *)
val default_degree : n:int -> int

val default_decide_streak : int

val msg_bits : msg -> int

(** Packs [(round, value, decided)] as a {!Ba_sim.Plane.code} with
    [phase = round], [sub = 0]. *)
val msg_code : msg -> int

(** The shared recv core, exposed for the word-budget variant: one sampled
    majority step over [inbox] for [round]. A round with no countable votes
    freezes the value and streak; with [quiet_extends_streak] (default
    false, set by the word-budget variant) a node already observing a
    supermajority instead reads total silence as "no news" and lets the
    streak grow. *)
val sample_step :
  ?quiet_extends_streak:bool ->
  degree:int ->
  decide_streak:int ->
  countdown:int ->
  state ->
  round:int ->
  inbox:msg Ba_sim.Plane.t ->
  state

val init_state : int -> state

val inspect : state -> Ba_sim.Protocol.node_view option

(** [make ~n ~t ()] builds an instance. [degree] defaults to
    {!default_degree}; pass [n - 1] (with a dense topology) for the
    broadcast control arm. [name] defaults to ["ks-sample"].
    @raise Invalid_argument if [n < 2], [degree] is outside [1, n-1], or
    [decide_streak < 1]. *)
val make : ?name:string -> ?degree:int -> ?decide_streak:int -> n:int -> t:int -> unit -> inst
