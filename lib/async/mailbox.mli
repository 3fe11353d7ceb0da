(** Pending-message slab with per-source queues.

    The asynchronous engine's in-flight store (DESIGN.md §15). One slab of
    reusable slots holds every pending message of a run; two intrusive
    doubly-linked lists thread through the same slot arrays:

    - the {e global} list, in ascending message id — the scheduler's one
      total order (FIFO fallback, bounded-delay staleness, the adversary's
      oldest-first [view.pending]);
    - a {e per-source} queue — adaptive corruption retracts a victim's
      undelivered messages in O(own messages), and the delayer scheduler
      finds the oldest non-victim message by scanning source heads.

    Ids are assigned by a monotonic counter and never reused, so id order
    is enqueue order and (because the engine's step counter is monotone)
    birth order: both lists are automatically sorted. Freed slots go on a
    freelist and are recycled by later enqueues — after warm-up the hot
    path allocates nothing per message (the slab doubles only when the
    in-flight population exceeds every previous high-water mark).

    Not domain-safe: a slab belongs to the engine run that created it. *)

type 'msg t

(** [create ~n ()] — empty slab with per-source queues for [n] nodes.
    @raise Invalid_argument if [n <= 0]. *)
val create : n:int -> unit -> 'msg t

(** [enqueue t ~src ~dst ~birth msg] appends a pending message to the tail
    of the global and source lists and returns its id.
    Ids are dense: the k-th call returns [k - 1].
    @raise Invalid_argument if [src] or [dst] is outside [\[0, n)]. *)
val enqueue : 'msg t -> src:int -> dst:int -> birth:int -> 'msg -> int

(** Number of messages currently in flight. *)
val size : _ t -> int

val is_empty : _ t -> bool

(** The id the next [enqueue] will assign (= messages ever enqueued). *)
val next_id : _ t -> int

(** Allocated slot capacity (high-water mark, for tests). *)
val capacity : _ t -> int

(** {1 Slot handles}

    A slot handle is an index into the slab, valid until the slot is
    removed. [-1] means "no slot" everywhere below. Accessors do not
    bounds-check beyond the array accesses themselves; handing back a
    freed slot is a caller bug (the engine never does — handles live only
    within one scheduler step). *)

val id : _ t -> int -> int

val src : _ t -> int -> int

val dst : _ t -> int -> int

val birth : _ t -> int -> int

val msg : 'msg t -> int -> 'msg

(** Oldest in-flight slot (head of the global list), or [-1]. *)
val head : _ t -> int

(** [next_global t s] — successor of slot [s] in ascending id order, or
    [-1] at the tail. *)
val next_global : _ t -> int -> int

(** [head_src t v] / [next_src t s] — messages sent by [v], oldest first. *)
val head_src : _ t -> int -> int

val next_src : _ t -> int -> int

(** [nth_global t k] — the slot with the (0-based) [k]-th smallest id, or
    [-1] if [k >= size t]. O(log ids) via the order-statistics index (the
    uniform scheduler draws one rank per step). *)
val nth_global : _ t -> int -> int

(** [find_by_id t i] — the slot holding id [i], or [-1]. O(1) (dense
    id-to-slot table); the opaque-adversary path delivers by id. *)
val find_by_id : _ t -> int -> int

(** [remove t s] unlinks slot [s] from both lists and recycles it.
    The slot's payload remains reachable from the slab until the slot is
    reused (bounded retention, documented). *)
val remove : 'msg t -> int -> unit

(** [remove_src t v] retracts every in-flight message sent by [v]
    (adaptive corruption). O(messages from [v]). *)
val remove_src : 'msg t -> int -> unit

(** [scratch t] — a slot-indexed engine scratch array, at least
    [capacity t] long, contents unspecified (the scored scheduler caches
    per-slot scores here). Re-fetch after any [enqueue]: growth replaces
    it. *)
val scratch : _ t -> int array

(** [validate t] — checks every structural invariant (list/freelist
    partition of slots, ascending ids on both lists, per-source lists
    consistent with slot fields, size accounting); raises
    [Invalid_argument] on the first violation. For tests. *)
val validate : _ t -> unit
