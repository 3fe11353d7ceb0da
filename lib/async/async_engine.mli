(** Asynchronous message-passing engine with an adversarial scheduler,
    realized as an actor runtime over a pending-message slab.

    The paper's Section 1.3 contrasts its synchronous result with the
    asynchronous setting, "even harder" under the same full-information
    adaptive adversary (Ben-Or and Bracha's exponential protocols, King–Saia
    and Huang–Pettie–Zhu's polynomial ones). This engine realizes that
    model so the contrast can be measured (experiment E17):

    - nodes are event-driven: they react to delivered messages and emit new
      ones; there are no rounds;
    - the adversary *is* the scheduler: at every step it picks which
      pending message to deliver next, with full information (all honest
      states and all pending messages), and may adaptively corrupt nodes
      (budget [t]) and inject messages from corrupted nodes at any step;
    - eventual delivery is enforced by a bounded-delay rule: a pending
      honest-to-honest message older than [max_delay] scheduler steps is
      force-delivered (oldest first) before the adversary's next choice —
      the standard way to make "eventually" finite in a simulation;
    - the run ends when every honest node has decided (async protocols
      typically keep echoing afterwards; we stop measuring), or at
      [max_steps].

    In-flight messages live in one preallocated pending-message slab
    ({!Mailbox}). An adversary's {!policy} declares its scheduling rule,
    and the engine's one scheduler loop turns it into a per-step pick: the
    pure schedulers pick straight from the slab (replaying the policy's
    exact PRNG draws), and [Opaque] builds the full view and runs [act].
    A policy adversary and its {!opaque_of} produce byte-identical
    outcomes; DESIGN.md §15 gives the argument.

    Determinism: everything is a function of [(seed, parameters)], as in
    the synchronous engine. *)

type ctx = { n : int; t : int; me : int; rng : Ba_prng.Rng.t }

(** A send: destination and payload. Broadcast = one send per node
    (self-delivery included, as in the synchronous engine). *)
type 'msg send = { to_ : int; payload : 'msg }

(** [broadcast ~n payload] — sends to every node including self. *)
val broadcast : n:int -> 'msg -> 'msg send list

type ('state, 'msg) protocol = {
  name : string;
  init : ctx -> input:int -> 'state * 'msg send list;
  on_message : ctx -> 'state -> src:int -> 'msg -> 'state * 'msg send list;
  output : 'state -> int option;
      (** decided value, once set — decisions must be sticky (never revert
          to [None]); the engine tracks completion incrementally on that
          contract *)
  msg_bits : 'msg -> int;
}

(** A message in flight. [age] counts scheduler steps since it was sent. *)
type 'msg pending = { id : int; src : int; dst : int; msg : 'msg; age : int }

type ('state, 'msg) view = {
  step : int;
  n : int;
  t : int;
  corrupted : bool array;
  budget_left : int;
  decided : bool array;  (** honest nodes that have decided *)
  pending : 'msg pending list;  (** oldest first; empty only when all decided *)
  states : 'state option array;  (** full information, live honest nodes *)
}

type 'msg action = {
  deliver : int option;
      (** id of the pending message to deliver now; [None] = deliver the
          oldest pending (the engine also overrides stale choices per the
          bounded-delay rule) *)
  corrupt : int list;  (** adaptive corruptions, clamped to budget *)
  inject : (int * int * 'msg) list;
      (** [(src, dst, msg)] sent by corrupted [src] this step; ignored for
          honest [src] *)
}

(** What the engine may assume about an adversary's behavior. Every
    constructor except [Opaque] is a {e pure scheduler} promise: the
    adversary never corrupts and never injects, and its [act] picks
    deliveries exactly per the declared rule — the engine is then free to
    skip materializing the view and run the policy directly against the
    slab. Declaring a policy whose [act] disagrees is a caller bug;
    construct via {!scheduler} (which derives [act] from the policy, so
    the two cannot drift) or {!opaque}. *)
type ('state, 'msg) policy =
  | Opaque
      (** no promise: the full view is built and [act] runs every step
          (adaptive corruption, injections, deliver-by-id all honored) *)
  | Fifo_pick  (** always deliver the oldest pending message *)
  | Avoid_srcs of int list
      (** deliver the oldest message whose sender is not listed; fall back
          to the oldest overall when only listed senders have mail *)
  | Uniform_pick of Ba_prng.Rng.t
      (** one uniform draw over the pending set (in id order) per step *)
  | Scored of ('state, 'msg) scorer
      (** deliver a minimum-score pending message, ties broken by one
          uniform draw over the tied candidates in id order *)

and ('state, 'msg) scorer = {
  sc_rng : Ba_prng.Rng.t;
  sc_score : states:'state option array -> src:int -> dst:int -> msg:'msg -> int;
      (** must be pure (no PRNG draws): it is re-evaluated freely *)
}

type ('state, 'msg) adversary = {
  adv_name : string;
  policy : ('state, 'msg) policy;
  act : ('state, 'msg) view -> 'msg action;
}

(** [scheduler ~name policy] — an adversary whose [act] is derived from
    [policy], so the declared promise holds by construction. *)
val scheduler : name:string -> ('state, 'msg) policy -> ('state, 'msg) adversary

(** [opaque ~name act] — an adversary with no policy promise; its [act]
    sees the full view every step. *)
val opaque :
  name:string -> (('state, 'msg) view -> 'msg action) -> ('state, 'msg) adversary

(** [opaque_of adv] — [adv] stripped of its policy promise: same [act],
    forced through the view-building [Opaque] pick. Test hook: a policy
    adversary and its [opaque_of] must produce byte-identical outcomes. *)
val opaque_of : ('state, 'msg) adversary -> ('state, 'msg) adversary

(** [fifo] — deliver strictly in send order, corrupt nobody: the friendly
    scheduler ([Fifo_pick]). *)
val fifo : ('state, 'msg) adversary

type outcome = {
  protocol_name : string;
  adversary_name : string;
  n : int;
  t : int;
  inputs : int array;
  steps : int;  (** scheduler steps executed *)
  deliveries : int;  (** messages delivered (equals [Metrics.messages metrics]) *)
  completed : bool;
  outputs : int option array;
  corrupted : bool array;
  corruptions_used : int;
  metrics : Ba_sim.Metrics.t;
      (** unified cost accounting: every delivery is metered through
          [Metrics.record_message] with the protocol's [msg_bits], and every
          injected link fault through the [record_link_*] counters — the same
          metering path as the synchronous engine *)
}

(** [run ~protocol ~adversary ~n ~t ~inputs ~seed ()] — executes until all
    honest nodes decide or [max_steps] (default [5000 * n]).
    [max_delay] (default [8 * n]) is the bounded-delay fairness horizon.

    @param faults a benign fault-injection plan ([Ba_sim.Faults]), applied
    with the same salted seed-derived stream as the synchronous engine:
    drop/corrupt/duplicate are drawn at delivery time in scheduler order
    (the run's one deterministic total order), a duplicate becomes a fresh
    scheduler-visible pending message, and silence windows — indexed by
    scheduler step here — suppress a sender's messages at enqueue time.
    Every event is metered. Omitting the plan (or passing [Faults.none]) is
    the exact fault-free engine.
    @param trace unified substrate trace hook ([Ba_sim.Run.trace]): [Tick]
    per scheduler step, [Corrupt] per corruption, [Deliver] per delivered
    message, [Fault] per injected link fault. A traced run executes the
    same loop as an untraced one; outcomes are unchanged.
    @raise Invalid_argument on the same conditions as the synchronous
    engine. *)
val run :
  ?max_steps:int ->
  ?max_delay:int ->
  ?faults:'msg Ba_sim.Faults.plan ->
  ?trace:Ba_sim.Run.trace ->
  protocol:('state, 'msg) protocol ->
  adversary:('state, 'msg) adversary ->
  n:int ->
  t:int ->
  inputs:int array ->
  seed:int64 ->
  unit ->
  outcome

(** [to_run o] projects an asynchronous outcome into the engine-agnostic
    substrate record ([Ba_sim.Run.outcome]), with
    [span = Run.Steps o.steps]. Arrays are shared, not copied. *)
val to_run : outcome -> Ba_sim.Run.outcome
