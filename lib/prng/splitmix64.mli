(** SplitMix64: a fast, well-mixed 64-bit PRNG (Steele, Lea & Flood 2014).

    Used both as a standalone generator and as the seeder/splitter for
    {!Xoshiro256}. State is a single [int64]; every call to {!next} advances
    the state by the golden-gamma constant and returns a mixed output, so
    distinct states yield statistically independent streams. *)

type t

(** [create seed] makes a generator whose stream is a pure function of
    [seed]. *)
val create : int64 -> t

(** [copy g] is an independent generator with the same state as [g]: both
    subsequently produce the identical stream. *)
val copy : t -> t

(** [next g] returns the next 64-bit output and advances [g]. *)
val next : t -> int64

(** [mix z] is the SplitMix64 output function (finalizer) applied to [z].
    Exposed for use as a general-purpose 64-bit hash. *)
val mix : int64 -> int64

(** [fill b seed] writes the first [Bytes.length b / 8] outputs of
    [create seed] into [b]'s successive native-endian 64-bit words,
    allocating nothing. {!Xoshiro256} seeds its state with it. *)
val fill : Bytes.t -> int64 -> unit

(** [split g] derives a fresh generator from [g] (advancing [g]) such that
    the two streams are statistically independent. *)
val split : t -> t
