(** Per-round delivery topologies for the message plane (DESIGN.md §13).

    A {!plan} names who each sender reaches in a round; {!instantiate} fixes
    the seed-derived sampling streams. The engine keeps [Dense] on the
    packed-slab broadcast fast path (byte-identical to the historical
    engine) and routes restricted plans through per-recipient sparse plane
    slices.

    Determinism contract: recipient sets are a pure function of
    [(seed, round, src)] — sampling is re-keyed per (round, sender) from a
    salted SplitMix64 stream independent of the per-node protocol streams,
    the adversary stream and the fault stream. Corruptions therefore never
    perturb sampling, and the order recipient sets are queried in cannot
    reorder draws.

    Ownership: an instance carries mutable sampling scratch (a generator
    reseeded per (round, sender) and an n-slot membership stamp), so it
    belongs to one run on one domain. [Engine.run] instantiates one per
    run; never share an instance across runs or domains. *)

type plan =
  | Dense  (** every sender reaches every recipient — the classical plane *)
  | Sampled of { degree : int }
      (** each sender reaches [degree] distinct uniformly sampled peers per
          round (fresh sample every round), King–Saia style *)
  | Committees of { count : int }
      (** node [v] sits in committee [v mod count] and reaches its own
          committee plus the designated committee [(round - 1) mod count] *)

type t

(** [is_dense p] — [true] exactly for {!Dense}; the engine's fast-path
    discriminator. *)
val is_dense : plan -> bool

(** @raise Invalid_argument if the plan is not realizable at [n]: a sampled
    degree outside [1, n-1] or a committee count outside [1, n]. *)
val validate : plan -> n:int -> unit

(** [instantiate plan ~n ~seed] fixes the topology for one run. Validates. *)
val instantiate : plan -> n:int -> seed:int64 -> t

(** [degree_bound t] — an upper bound on any sender's recipient count in
    any round: [n - 1] for [Dense], the clamped degree for [Sampled], and
    the sender's committee plus one other for [Committees]. *)
val degree_bound : t -> int

(** [recipients t ~round ~src] — the distinct, sorted-ascending recipient
    set of [src] in [round], never containing [src] itself (self-delivery is
    the engine's job). A fresh array per call.
    @raise Invalid_argument if [round < 1] or [src] is out of range. *)
val recipients : t -> round:int -> src:int -> int array

(** [recipients_into t ~round ~src out ~pos] writes the set [recipients t
    ~round ~src] into [out.(pos)] onwards, in draw order, and returns its
    length, allocating nothing on the sparse sampling path. Draw order is
    ascending for [Dense] and [Committees]; a [Sampled] set comes out in
    the order its (round, src) stream drew it. A caller whose result
    depends on the order (a per-link draw or adversary call) passes the
    range to {!sort_recipients} first. [out] needs [degree_bound t] free
    slots from [pos].
    @raise Invalid_argument as {!recipients}. *)
val recipients_into : t -> round:int -> src:int -> int array -> pos:int -> int

(** [sort_recipients t out ~pos ~len] sorts the [len] recipients that
    {!recipients_into} just wrote at [out.(pos)] ascending, in place and
    without allocating: the order {!recipients} returns. A no-op for
    [Dense] and [Committees]. [len] must be the length [recipients_into]
    returned. *)
val sort_recipients : t -> int array -> pos:int -> len:int -> unit
