(** Fixed-bin histograms, used for round-count distributions (Las Vegas
    experiment) and coin-sum distributions. *)

type t

(** [create ~lo ~hi ~bins] covers [\[lo, hi)] with [bins] equal bins plus
    underflow/overflow counters. Raises [Invalid_argument] if [bins <= 0] or
    [hi <= lo]. *)
val create : lo:float -> hi:float -> bins:int -> t

(** [add h x] increments the bin containing [x]. *)
val add : t -> float -> unit

(** [add_int h x] is [add] on the integer observation. *)
val add_int : t -> int -> unit

(** [count h] is the total number of observations, including under/overflow. *)
val count : t -> int

(** [bin_count h i] is the count of bin [i] in [\[0, bins)]. *)
val bin_count : t -> int -> int

(** [underflow h], [overflow h]: observations outside [\[lo, hi)]. *)
val underflow : t -> int

val overflow : t -> int

(** [bins h] is the number of bins. *)
val bins : t -> int

(** [mode_bin h] is the index of the fullest bin ([None] when empty). *)
val mode_bin : t -> int option

(** [pp] renders a compact vertical-bar sketch. *)
val pp : Format.formatter -> t -> unit
