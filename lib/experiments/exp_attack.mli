(** E23 — deterministic attack search over the strategy IR
    ({!Ba_adversary.Search}) vs the fixed adversary catalog, and the two
    search objectives it scores genomes by. *)

(** The coin-bias objective on one cell (exposed for [ba_attack] and the
    tests): fraction of [trials] in which every honest node outputs 1
    from Algorithm 1 under the genome's coin lowering. *)
val coin_objective :
  n:int -> t:int -> trials:int -> seed:int64 -> Ba_adversary.Strategy.genome -> float

(** The rounds-to-decide objective on one cell: mean rounds of the Las
    Vegas protocol under the genome's skeleton lowering (stalled runs
    count the round cap). Domain-count independent. *)
val rounds_objective :
  ?policy:Ba_harness.Supervisor.policy ->
  domains:int ->
  n:int ->
  t:int ->
  trials:int ->
  seed:int64 ->
  Ba_adversary.Strategy.genome ->
  float

(** Registry descriptor for E23 (with its campaign form). *)
val experiments : Ba_harness.Registry.descriptor list
