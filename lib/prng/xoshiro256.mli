(** xoshiro256++ (Blackman & Vigna 2019): the workhorse generator.

    256-bit state, period [2^256 - 1], passes BigCrush. Seeded via SplitMix64
    so that any [int64] seed produces a well-mixed initial state.

    The draws below that return an [int], a [bool] or a [float] allocate
    no intermediate [int64]; {!Rng} is a thin layer over them. *)

type t

(** [create seed] seeds the four state words from SplitMix64 on [seed]. *)
val create : int64 -> t

(** [reseed g seed] puts [g] in the state [create seed] would have, in
    place and without allocating. *)
val reseed : t -> int64 -> unit

(** [copy g] is an independent generator with identical state. *)
val copy : t -> t

(** [next g] returns the next 64-bit output. *)
val next : t -> int64

(** [int_below g bound] is uniform in [\[0, bound)] for [bound >= 1]:
    the top 63 bits of {!next}, rejection-sampled for exact uniformity.
    [bound = 1] returns [0] without drawing. *)
val int_below : t -> int -> int

(** [bool g] is [true] iff the next output is negative. *)
val bool : t -> bool

(** [float g] is the top 53 bits of the next output, scaled to
    [\[0, 1)]. *)
val float : t -> float

(** [bernoulli g p] is [float g < p], without boxing the float. *)
val bernoulli : t -> float -> bool

(** [jump g] advances [g] by [2^128] steps in place — used to derive
    non-overlapping substreams. *)
val jump : t -> unit
