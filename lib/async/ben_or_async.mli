(** Ben-Or (PODC 1983): the classic asynchronous randomized Byzantine
    agreement, tolerating [t < n/5] with private local coins.

    Per asynchronous round [r] each node:
    + broadcasts [(R, r, x)];
    + waits for [n - t] round-[r] R-messages (one per sender); if more than
      [(n + t) / 2] carry one value [v], broadcasts [(P, r, v)], otherwise
      [(P, r, ?)];
    + waits for [n - t] round-[r] P-messages; with [m] votes for the best
      non-[?] value [v]: decides [v] if [m > (n + t) / 2], adopts
      [x := v] if [m ≥ t + 1], otherwise flips a private coin; then starts
      round [r + 1].

    A deciding node broadcasts a [(D, v)] notice; receivers count a decided
    sender as an [(R, r, v)] and [(P, r, v)] vote for every later round
    (the standard amplification that keeps waits live after deciders go
    quiet), and [t + 1] D-notices for the same value force a decision.

    Expected exponential rounds in the worst case — the point of the
    paper's Section 1.3 contrast, measured in experiment E17. *)

type msg

type state

(** [protocol] — run it in {!Async_engine.run}. For the [t < n/5] guarantee
    use {!make}, which validates the resilience. *)
val protocol : (state, msg) Async_engine.protocol

(** [make ~n ~t] — @raise Invalid_argument unless [n > 5t]. *)
val make : n:int -> t:int -> (state, msg) Async_engine.protocol

(** [round_reached st] — the protocol round the node is in (for round-count
    measurements). *)
val round_reached : state -> int

(** [r_tally st ~round] — how many R-votes for 0 and for 1 the node has
    recorded for [round] (full information: the adversarial scheduler uses
    this to starve majorities). *)
val r_tally : state -> round:int -> int * int

(** [waiting_for_p st] — the node has sent its round's P-message and is
    waiting on P-votes. *)
val waiting_for_p : state -> bool

(** [classify m] — payload introspection for schedulers ([`R (round, v)],
    [`P (round, v)], [`D v]). *)
val classify : msg -> [ `R of int * int | `P of int * int | `D of int ]

(** Message constructors for adversarial injection in tests and
    experiments. [v] outside [{0, 1}] (e.g. 2) encodes [?] in P-messages. *)
val mk_r : round:int -> v:int -> msg

val mk_p : round:int -> v:int -> msg

val mk_d : v:int -> msg
