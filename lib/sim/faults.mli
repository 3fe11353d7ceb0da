(** Deterministic benign fault injection for the round engine.

    The paper's adversary model is Byzantine corruption under a budget [t];
    this module adds the {e benign} unreliability a production deployment
    would face — lossy, duplicating, bit-flipping links and crash-recovery
    windows — without touching the protocol implementations. The engine
    threads a {!plan} through message delivery; every injected event is
    metered in {!Metrics} so runs remain auditable, and the whole fault
    stream is derived from the run seed (one salted splittable PRNG), so a
    faulty run replays bit-for-bit from [(seed, plan)].

    Semantics (per directed link [src -> dst], self-delivery exempt):

    - {b drop}: with probability [drop], a sent payload is not delivered.
    - {b corrupt}: with probability [corrupt], the payload is rewritten by
      the plan's [mutate] before delivery (the supplied mutator decides what
      a "bit flip" means for the protocol's message type).
    - {b duplicate}: with probability [duplicate], a delivered payload is
      also queued and re-delivered one round later {e if} the link is
      otherwise idle that round (a stale redelivery — the synchronous inbox
      holds one slot per sender).
    - {b silence} (crash-recovery): a node listed with window [\[from,
      until)] sends nothing during those rounds but keeps receiving and
      stepping, then resumes — the classic send-omission realization of
      "crashed for a while, then recovered" that keeps the node
      round-synchronized.

    What counts against the corruption budget [t] is a modelling decision of
    the experiment, not of this module: E18/E19 size their Byzantine budget
    down so (Byzantine nodes + expected faulty links/silenced nodes per
    round) stays within the protocol's tolerance (DESIGN.md §9). *)

(** Silence window: node [s_node] sends nothing in rounds [\[s_from, s_until)]. *)
type silence = { s_node : int; s_from : int; s_until : int }

type 'msg plan = private {
  drop : float;
  duplicate : float;
  corrupt : float;
  mutate : (Ba_prng.Rng.t -> 'msg -> 'msg) option;
  silences : silence list;
}

(** No faults at all; the engine treats it exactly like passing no plan. *)
val none : 'msg plan

val is_none : _ plan -> bool

(** [make ()] — build a validated plan.
    @raise Invalid_argument if a rate is outside [\[0,1]], if [corrupt > 0]
    without a [mutate], or a silence window is malformed. *)
val make :
  ?drop:float ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?mutate:(Ba_prng.Rng.t -> 'msg -> 'msg) ->
  ?silences:silence list ->
  unit ->
  'msg plan

(** Runtime state for one engine run (PRNG stream + duplicate buffer). *)
type 'msg instance

(** [instantiate plan ~n ~seed] — the fault stream is
    [Splitmix64.mix (seed + salt)], independent of the node streams derived
    from the same seed.
    @raise Invalid_argument if a silence window names a node [>= n]. *)
val instantiate : 'msg plan -> n:int -> seed:int64 -> 'msg instance

(** [silenced inst ~node ~round] — is the node inside one of its silence
    windows this round? *)
val silenced : _ instance -> node:int -> round:int -> bool

(** [silenced_in_round plan ~round] — how many schedule entries cover
    [round] (for budget accounting in experiments). *)
val silenced_in_round : _ plan -> round:int -> int

(** What one link did to a payload (see {!deliver_edit}). *)
type edit =
  | Kept  (** the payload arrives as sent ([None] stays [None]) *)
  | Dropped  (** the sent payload is lost, and no stale duplicate replaces it *)
  | Replaced
      (** a different payload arrives: a mutated copy, or a stale duplicate
          on an otherwise idle link; read it with {!replacement} *)

(** [deliver_edit inst ~metrics ~round ~src ~dst payload] — push one link's
    payload through the fault model, metering every injected event, and
    report the edit. Allocates nothing unless the payload is mutated. Must
    be called in a deterministic link order (the engine iterates receivers
    then senders) so the PRNG stream is reproducible. Self-delivery is
    always [Kept]. *)
val deliver_edit :
  'msg instance -> metrics:Metrics.t -> round:int -> src:int -> dst:int -> 'msg option -> edit

(** [replacement inst] — what the last {!deliver_edit} that did not return
    [Kept] delivered: [None] after [Dropped]. *)
val replacement : 'msg instance -> 'msg option

(** [deliver inst ~metrics ~round ~src ~dst payload] — {!deliver_edit} as
    the delivered payload: [payload] itself when [Kept], else
    {!replacement}. *)
val deliver :
  'msg instance ->
  metrics:Metrics.t ->
  round:int ->
  src:int ->
  dst:int ->
  'msg option ->
  'msg option

(** {1 Asynchronous plane}

    The async engine has no lockstep rounds, so the synchronous duplicate
    buffer ("re-deliver next round if the link is idle") has no analogue.
    Instead {!apply_async} reports the fault decisions and the engine turns
    a duplicate into a {e fresh scheduler-visible pending message} — the
    adversarial scheduler sees and orders the copy like any other message.
    Silence windows reuse {!silenced} with the scheduler step as the
    "round": a silenced sender's messages are suppressed at enqueue time
    (and metered as crash silences) while the window covers the current
    step. The PRNG stream is the same salted per-run stream as the
    synchronous plane, so a faulty async run replays bit-for-bit from
    [(seed, plan)]. *)

(** Outcome of pushing one async delivery through the fault model. *)
type 'msg delivery = {
  d_payload : 'msg option;  (** [None] iff the message was dropped *)
  d_mutated : bool;  (** payload was rewritten by the plan's [mutate] *)
  d_duplicate : bool;  (** caller must re-enqueue a copy of [d_payload] *)
}

(** [apply_async inst ~metrics ~src ~dst payload] — draw drop, corrupt and
    duplicate decisions (in that order, matching {!deliver}) for one async
    delivery, metering every injected event. Self-delivery is exempt. Must
    be called in the deterministic delivery order chosen by the scheduler
    loop so the stream is reproducible. *)
val apply_async :
  'msg instance ->
  metrics:Metrics.t ->
  src:int ->
  dst:int ->
  'msg ->
  'msg delivery
