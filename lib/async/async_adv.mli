(** Adversarial schedulers and Byzantine strategies for the asynchronous
    engine.

    Every scheduling bias is a point of the adversary-strategy IR
    ({!Ba_adversary.Strategy.async_bias}, DESIGN.md §16), fielded by
    {!of_strategy} / {!of_strategy_ben_or}; the named biases are the
    [Strategy.async_*_point] catalog points, which the lowerings name
    ["random-scheduler"], ["delayer"], ["ben-or-balancer"] and
    ["ben-or-splitter"] by default. *)

(** [of_strategy genome] — lower a genome's async scheduling bias to an
    adversary: [Ab_fifo] (oldest first), [Ab_uniform] (uniform pending
    pick, needs [~rng]) or [Ab_avoid] (starve listed senders).
    @raise Invalid_argument for the Ben-Or-specific biases (use
    {!of_strategy_ben_or}) or when a randomized bias lacks [~rng]. *)
val of_strategy :
  ?name:string ->
  ?rng:Ba_prng.Rng.t ->
  Ba_adversary.Strategy.genome ->
  ('s, 'm) Async_engine.adversary

(** [of_strategy_ben_or genome] — the full lowering against
    {!Ben_or_async}: additionally [Ab_balance] (minority-feeding scored
    scheduler) and [Ab_split] (step-1 corruption plus contradictory
    current-round vote injection, value [(dst + parity) mod 2]). *)
val of_strategy_ben_or :
  ?name:string ->
  ?rng:Ba_prng.Rng.t ->
  Ba_adversary.Strategy.genome ->
  (Ben_or_async.state, Ben_or_async.msg) Async_engine.adversary

(** [random_scheduler ~rng] — {!of_strategy} of
    {!Ba_adversary.Strategy.async_uniform_point}: delivers a uniformly
    random pending message each step; corrupts nobody. The "fair but
    unhelpful" network. *)
val random_scheduler : rng:Ba_prng.Rng.t -> ('s, 'm) Async_engine.adversary

(** [byz_flooder ~rng ~forge] — corrupts its whole budget at step 1; each
    following step delivers a random pending message and injects one forged
    message [forge ~rng ~step ~dst] from a random corrupted node to a
    random honest node. The generic Byzantine noise source for async
    protocols. *)
val byz_flooder :
  rng:Ba_prng.Rng.t ->
  forge:(rng:Ba_prng.Rng.t -> step:int -> dst:int -> 'm) ->
  ('s, 'm) Async_engine.adversary
