(** The synchronous round engine.

    Implements the paper's model: a complete network of [n] nodes, lockstep
    rounds, reliable authenticated point-to-point channels (the receiver
    always knows the true sender identity — Byzantine nodes cannot forge
    sender IDs, only payloads), and a full-information rushing adaptive
    adversary (see {!Adversary}).

    Round structure:
    + every live honest node produces its broadcast ([Protocol.send]);
    + the adversary observes everything (including those broadcasts) and
      picks new corruptions and per-recipient Byzantine payloads;
    + newly corrupted nodes have their round broadcast replaced — rushing;
    + each live honest node receives its inbox and steps ([Protocol.recv]).

    The run ends when every honest node has halted, or at [max_rounds]. *)

(** Per-round record kept when [record:true], consumed by trace checkers. *)
type round_record = {
  rr_round : int;
  rr_new_corruptions : int list;
  rr_views : Protocol.node_view option array;
      (** post-[recv] introspection; [None] for corrupted nodes or protocols
          without introspection *)
}

type outcome = {
  protocol_name : string;
  adversary_name : string;
  n : int;
  t : int;
  inputs : int array;
  rounds : int;  (** rounds executed *)
  completed : bool;  (** all honest nodes halted before [max_rounds] *)
  outputs : int option array;  (** [outputs.(v)] for honest [v]; [None] for corrupted *)
  corrupted : bool array;  (** final corruption set *)
  corruptions_used : int;
  metrics : Metrics.t;
  records : round_record list;  (** oldest first; empty unless [record] *)
}

(** [run ~protocol ~adversary ~n ~t ~inputs ~seed ()] executes one instance.

    @param max_rounds cap (default {!Protocol.default_round_cap}).
    @param record keep per-round {!round_record}s for invariant checking.
    @param congest_limit_bits when set, every delivered payload larger than
    this is counted as a CONGEST violation in the metrics (the paper's model
    allows O(log n) bits per edge per round); delivery still happens, so a
    violating protocol (e.g. EIG) remains runnable but measurably so.
    @param faults a benign fault-injection {!Faults.plan} (link drop /
    duplication / corruption, crash-recovery silence windows); the fault
    stream is derived from [seed], every injected event is metered, and
    passing {!Faults.none} (or omitting the argument) is the exact fault-free
    engine.
    @param topology the per-round delivery {!Topology.plan} (default
    [Topology.Dense], which is bit-for-bit the historical dense engine). A
    restricted plan delivers each broadcast only to the sender's per-round
    recipient set, through per-recipient sparse plane slices; a node still
    always hears itself. Byzantine payloads are likewise constrained to the
    corrupted sender's sampled links ([byz_msg] is consulted once per
    sampled edge, senders ascending then recipients ascending), and
    corruption accounting, budget caps and checker audits are unchanged.
    Link faults compose: {!Faults.deliver} is applied to every sampled
    edge in the same deterministic order. Sampling draws from a dedicated
    salted stream keyed by [(seed, round, src)], so recipient sets are
    independent of adversary behaviour. The engine sorts a recipient set
    only where that order is observable, for a corrupted sender or under
    a fault plan. In a round with no fault plan and no corrupted node,
    every recipient's slice reads its payloads through the sender id. The
    per-edge payload arrays are allocated only when [faults] or [t > 0]
    lets an edge differ from its sender's broadcast (DESIGN.md §13).
    @param trace unified substrate trace hook ({!Run.trace}); the
    synchronous engine emits round-granularity events only ([Run.Tick] per
    round, [Run.Corrupt] per corruption — per-message events would defeat
    the batched delivery plane of DESIGN.md §10). Omitting it costs
    nothing on the hot path.
    @param inputs binary inputs, one per node (length [n]).
    @raise Invalid_argument if [inputs] has the wrong length, if any input is
    not 0/1, if [t < 0] or [t >= n], or if the fault plan names a node
    [>= n]. *)
val run :
  ?max_rounds:int ->
  ?record:bool ->
  ?congest_limit_bits:int ->
  ?faults:'msg Faults.plan ->
  ?topology:Topology.plan ->
  ?trace:Run.trace ->
  protocol:('state, 'msg) Protocol.t ->
  adversary:('state, 'msg) Adversary.t ->
  n:int ->
  t:int ->
  inputs:int array ->
  seed:int64 ->
  unit ->
  outcome

(** [to_run o] projects a synchronous outcome into the engine-agnostic
    substrate record ({!Run.outcome}), with [span = Run.Rounds o.rounds].
    Arrays are shared, not copied. The per-round [records] do not project —
    record-level checks stay on the native outcome. *)
val to_run : outcome -> Run.outcome

(** [honest_outputs o] — the decided values of honest nodes (those with an
    output), as a list of [(node, value)]. Equal to
    [Run.honest_outputs (to_run o)], as are the two predicates below. *)
val honest_outputs : outcome -> (int * int) list

(** [agreement_holds o] — no two honest nodes output different values, and
    every honest node that halted produced an output. *)
val agreement_holds : outcome -> bool

(** [validity_holds o] — if all honest *inputs* (of finally-honest nodes)
    equal [b], every honest output equals [b]; vacuously true otherwise.

    Note: per the adaptive model, validity is judged against nodes that were
    honest for the entire execution. *)
val validity_holds : outcome -> bool
