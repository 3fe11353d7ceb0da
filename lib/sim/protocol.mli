(** Protocol interface for the synchronous round engine.

    A protocol is a per-node state machine. Each round the engine calls
    [send] on every live honest node (collecting the broadcasts), lets the
    adversary act (see {!Adversary}), delivers an inbox to every live honest
    node (including the node's own broadcast — a node "hears itself", which
    is how Algorithm 1's "sum including its value" is realized), and calls
    [recv].

    Nodes draw randomness from [ctx.rng]; in the full-information model
    those draws are public, and indeed the adversary sees the resulting
    messages before Byzantine messages are committed. *)

type ctx = {
  n : int;  (** total nodes *)
  t : int;  (** corruption budget the protocol is configured for *)
  me : int;  (** this node's ID in [0, n) — IDs are common knowledge *)
  rng : Ba_prng.Rng.t;  (** this node's private coin stream *)
}

(** Generic introspection of a node's state, for invariant checkers. Protocols
    that are not phase-structured may return [None] from [inspect]. *)
type node_view = {
  nv_phase : int;
  nv_val : int;
  nv_decided : bool;
  nv_finished : bool;
}

type ('state, 'msg) t = {
  name : string;
  init : ctx -> input:int -> 'state;
  send : ctx -> 'state -> round:int -> 'msg option;
      (** broadcast payload for this round; [None] = silent this round *)
  recv : ctx -> 'state -> round:int -> inbox:'msg Plane.t -> 'state;
      (** [Plane.get inbox v] is the message received from node [v] (None if
          silent or halted); slot [me] is the node's own broadcast. The
          plane is only valid for the duration of the call — in benign
          rounds it is shared between recipients, so
          [recv] must not capture it or mutate anything reachable from it. *)
  output : 'state -> int option;  (** the decided value, once decided *)
  halted : 'state -> bool;  (** node has left the protocol *)
  msg_bits : 'msg -> int;  (** payload size for CONGEST accounting *)
  msg_words : 'msg -> int;
      (** payload size in machine words for word-complexity accounting
          (see {!Metrics.words}); {!words_of_bits} of [msg_bits] is the
          canonical definition *)
  codec : ('msg -> int) option;
      (** packs a payload header into a {!Plane.code} int, enabling the
          shared plane's O(n)-per-round tally kernels; [None] for payloads
          that don't fit the vote/flip shape (kernels then unavailable) *)
  inspect : 'state -> node_view option;  (** checker hook *)
}

(** [max_rounds_hint p ~n ~t] — protocols may be run without an explicit
    round cap; the engine uses a generous default derived from [n]. *)
val default_round_cap : n:int -> int

(** [words_of_bits bits] — the canonical [msg_words]: [bits] packed into
    64-bit machine words, never less than one word per message. *)
val words_of_bits : int -> int
