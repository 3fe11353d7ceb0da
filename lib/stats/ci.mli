(** Confidence intervals for Monte-Carlo estimates.

    The harness reports a Wilson interval for every empirical probability
    (coin success rates, phase-good rates) and a normal or bootstrap interval
    for every mean (round counts, message counts). *)

type interval = { lo : float; hi : float }

(** [wilson ~successes ~trials ~z] is the Wilson score interval for a
    binomial proportion; [z] is the normal quantile (1.96 for 95%).
    Raises [Invalid_argument] if [trials <= 0] or [successes] outside
    [\[0, trials\]]. *)
val wilson : successes:int -> trials:int -> z:float -> interval

(** [wilson95 ~successes ~trials] is [wilson] at 95% confidence. *)
val wilson95 : successes:int -> trials:int -> interval

(** [bootstrap ?iterations ~rng ~statistic xs] is the percentile-bootstrap
    95% interval of [statistic] over resamples of [xs]. *)
val bootstrap :
  ?iterations:int -> rng:Ba_prng.Rng.t -> statistic:(float array -> float) -> float array ->
  interval

(** [contains i x] tests membership. *)
val contains : interval -> float -> bool

val pp : Format.formatter -> interval -> unit
