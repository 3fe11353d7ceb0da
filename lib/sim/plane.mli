(** Batched message plane: one round's deliveries as seen by a recipient
    (DESIGN.md section 10).

    Each dense round the engine builds a single {e shared} plane over the
    honest broadcast slab: payloads are packed once into a reusable flat
    [int] code array and the dominant aggregations ({!vote_counts},
    {!signed_sum}) are memoized across recipients. In a benign round every
    live recipient reads that plane itself, so an all-to-all round costs
    O(n) instead of O(n^2) for tally-style protocols. A recipient whose
    inbox differs at a few slots (Byzantine payloads, link-fault edits)
    reads a {e patched} view of it instead: the shared plane plus a sorted
    per-recipient patch, with tallies taken from the shared memo and
    corrected at the patched slots. A round with t Byzantine senders then
    costs O(n + t n) rather than O(n^2), with per-link delivery semantics
    (and RNG draw order) unchanged.

    Under a restricted {!Topology} (sampled or committee links) a
    recipient's inbox is instead a {e sparse slice}: the sorted list of
    senders whose per-round recipient set contained it, with packed codes
    and boxed payloads stored per delivery or, when every delivery carries
    its sender's broadcast, read through the sender id. Tally kernels on a
    slice cost O(in-degree) rather than O(n) — the sublinear-communication
    plane of DESIGN.md §13.

    A protocol opts into the packed kernels by providing a
    [Protocol.t.codec] built from {!code}; protocols with payloads that
    don't fit the vote/flip shape (e.g. EIG subtrees) leave the codec
    [None] and read boxed payloads through {!get} / {!iteri}. *)

type 'msg t

(** {1 Packed codes} *)

(** Slot code for "no message" ([-1]). Codes are non-negative for real
    payloads; see {!code}. *)
val absent : int

(** Slot code for a payload no in-range query can match, e.g. a Byzantine
    header with an absurd phase ([-2]). *)
val opaque : int

(** [code ~phase ~sub ~decided ~vote ~flip] packs one payload header.
    Layout: bits 0-1 vote (0, 1, or 2 = not a countable vote — any other
    [vote] input normalizes to 2), bit 2 decided, bits 3-4 sub-round, bits
    5-6 flip ([Some 1] / [Some (-1)] / anything else = none), bits 7+
    phase. A [phase] outside [0, 2^44] yields {!opaque} (adversarial
    headers must still encode).
    @raise Invalid_argument if [sub] is outside [0, 3] — sub-round ids are
    protocol constants, never attacker-controlled. *)
val code : phase:int -> sub:int -> decided:bool -> vote:int -> flip:int option -> int

(** {1 Construction (engine side)} *)

(** [of_array ?encode data] — a solo plane owning [data] (not copied).
    Kernels derive codes on the fly through [encode]. *)
val of_array : ?encode:('msg -> int) -> 'msg option array -> 'msg t

(** [shared ?encode ~slab data] — a shared plane: codes are packed into
    [slab] (reused across rounds; reallocated only if too short) and kernel
    results are memoized. The caller must not mutate [data] or [slab] while
    any recipient can still read the plane. *)
val shared : ?encode:('msg -> int) -> slab:int array -> 'msg option array -> 'msg t

(** [sparse_slice ?codes ?by_sender ~n ~srcs ~msgs ~lo ~hi ()] — a
    per-recipient plane over the deliveries [lo, hi) of [srcs]: [srcs.(k)]
    is the sender id (in [\[0, n)], strictly ascending within the slice).
    Per edge (the default), [msgs.(k)] is delivery [k]'s boxed payload and
    [codes.(k)] (when the protocol has a codec) its packed code. With
    [~by_sender:true] they are read at the sender id instead,
    [msgs.(srcs.(k))] and [codes.(srcs.(k))]: the engine passes the
    round's broadcast array when no edge differs from its sender's
    broadcast. [n] is the sender-id space and becomes {!length}. The
    arrays are not copied: the engine's slices share one per-run inbox
    slab, refilled each round, so a slice is valid only until its round's
    recv steps end (the [Protocol.recv] contract). Kernels scan only the
    slice; {!get} binary-searches it; {!iteri} visits {e delivered} slots
    only (a sparse inbox has no meaningful "absent slot" enumeration).
    @raise Invalid_argument if the slice bounds are bad, or if [msgs] or
    [codes] is too short: shorter than [hi] per edge, than [n] by sender. *)
val sparse_slice :
  ?codes:int array ->
  ?by_sender:bool ->
  n:int ->
  srcs:int array ->
  msgs:'msg option array ->
  lo:int ->
  hi:int ->
  unit ->
  'msg t

(** [patched ?codes base ~slots ~msgs ~len] — [base] seen through a patch:
    slot [slots.(k)] holds [msgs.(k)] (packed as [codes.(k)]) for [k <
    len], every other slot reads [base]. [slots] must be strictly
    ascending over [\[0, len)]; [codes] is required by the tally kernels.
    Kernels take [base]'s (memoized) result and correct it at the [len]
    patched slots, costing O(len) after the first query of a shared base;
    the base memo never stores a patched answer. The buffers are not
    copied: the engine refills one set per run, so a patched plane is
    valid only until its recipient's recv returns.
    @raise Invalid_argument if [base] is not a flat plane or [len] exceeds
    a buffer. *)
val patched :
  ?codes:int array -> 'msg t -> slots:int array -> msgs:'msg option array -> len:int -> 'msg t

(** [shard_view t] — a view sharing [t]'s payloads and codes but with its
    own empty memo cache (a tally on it is computed, not memo-hit). *)
val shard_view : 'msg t -> 'msg t

(** {1 Boxed access (protocol side)} *)

val length : _ t -> int

(** [get t v] is the message received from node [v] ([None] if silent,
    halted, dropped, or — on a sparse slice — simply not sampled);
    [get t me] is the node's own broadcast. *)
val get : 'msg t -> int -> 'msg option

(** On a flat or patched plane, visits every slot (with [None] for absent).
    On a sparse slice, visits only delivered slots, ascending by sender. *)
val iteri : (int -> 'msg option -> unit) -> 'msg t -> unit

val to_array : 'msg t -> 'msg option array

(** {1 Tally kernels}

    Both raise [Invalid_argument] on a plane without a codec. *)

(** [vote_counts t ~phase ~sub ~decided_only] — [(zeros, ones)] over slots
    whose code matches [phase] and [sub] and carries a countable vote,
    restricted to decided senders when [decided_only]. *)
val vote_counts : 'msg t -> phase:int -> sub:int -> decided_only:bool -> int * int

(** [signed_sum t ~phase ~sub ~members] — sum of [±1] flips over slots [v]
    with [members v] whose code matches [phase] and [sub]. On a shared
    plane the result is memoized under the [(phase, sub)] key, so for a
    given plane all callers passing equal [(phase, sub)] must pass an
    equivalent [members] predicate (true of the round-synchronous protocols
    here: membership is a function of the phase). *)
val signed_sum : 'msg t -> phase:int -> sub:int -> members:(int -> bool) -> int
