(** Adaptive word-budget variant of {!Ks_agreement} (DESIGN.md §13).

    Same sampled-majority dynamics, but a node only sends when it has news:
    the first two rounds, a heartbeat every [heartbeat] rounds, any round
    after its value or decided-flag changed, and throughout its decided
    countdown. A receiver whose whole sample stayed silent keeps its value
    and — if it was already observing a supermajority — reads the silence
    as "no news" and lets its streak grow, so stable stretches cost almost
    no words without stalling progress. Words per node per round drop from
    [degree] to amortized [O(degree / heartbeat)] once values stabilize. *)

type msg = Ks_agreement.msg

type state = {
  w_ks : Ks_agreement.state;
  w_changed : bool;  (** value or decided-flag moved in the last recv *)
}

type inst = {
  protocol : (state, msg) Ba_sim.Protocol.t;
  degree : int;
  heartbeat : int;
  decide_streak : int;
  round_bound : int;  (** {!Ks_agreement.inst.round_bound} × (heartbeat+1) *)
}

(** Whether a node spends words in [round] (exposed for tests). *)
val speaks : heartbeat:int -> state -> round:int -> bool

(** [make ~n ~t ()] builds an instance; [degree] defaults to
    {!Ks_agreement.default_degree}, [heartbeat] to 4.
    [name] defaults to ["word-budget"].
    @raise Invalid_argument if [n < 2], [degree] is outside [1, n-1],
    [heartbeat < 1], or [decide_streak < 1]. *)
val make :
  ?name:string ->
  ?degree:int ->
  ?heartbeat:int ->
  ?decide_streak:int ->
  n:int ->
  t:int ->
  unit ->
  inst
