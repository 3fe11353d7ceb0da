(** Deterministic attack search over the strategy IR (DESIGN.md §16).

    A pure optimizer over {!Strategy.genome}: given a {!space} (instance
    size, budget, and which message plane the genomes must lower to) and a
    deterministic {!objective}, it runs greedy hill-climbing with one-step
    lookahead from every catalog seed, widens the frontier with a beam, and
    finishes with a capped simulated-annealing polish whose proposal stream
    is a salted {!Ba_prng.Splitmix64} — no wall clock, no ambient
    randomness, no shared state (D001/D002/D003 clean). The whole run is a
    pure function of [(space, seed, objective)]: byte-identical results at
    any worker or domain count, because this module never spawns anything —
    parallelism belongs inside the caller's objective
    (e.g. [Ba_experiments.Exp_attack] fans Monte-Carlo trials through
    [Ba_harness.Experiment.monte_carlo]).

    Evaluations are memoized on {!Strategy.encode}, so [r_evals] counts
    {e distinct} genomes scored; the objective is called exactly once per
    distinct genome, in a deterministic order. *)

(** Which lowering the searched genomes must support. *)
type plane =
  | Coin_plane
      (** genomes for {!Strategy.to_coin} ([Crash], [Coin_split],
          [Coin_push] tactics) *)
  | Skeleton_plane  (** genomes for {!Strategy.to_skeleton} (every tactic) *)

type space = {
  sp_n : int;  (** instance size (clamps victim ids and starve targets) *)
  sp_t : int;  (** corruption budget (clamps burst rounds and rates) *)
  sp_plane : plane;
  sp_max_round : int;
      (** horizon for timing schedules: burst/stagger rounds stay in
          [[1, sp_max_round]] *)
}

(** Higher is better. Must be a deterministic function of the genome
    (derive any trial randomness from seeds carried in the closure). *)
type objective = Strategy.genome -> float

(** Search effort knobs. Every phase is optional: zero width/iters skips
    it. [b_max_evals] is a hard cap on distinct objective calls across all
    phases; when it binds, the search stops early (still
    deterministically). *)
type budget = {
  b_greedy_steps : int;  (** hill-climb steps per catalog seed *)
  b_beam_width : int;  (** frontier width of the beam phase *)
  b_beam_depth : int;  (** beam expansion rounds *)
  b_anneal_iters : int;  (** simulated-annealing proposals *)
  b_max_evals : int;  (** hard cap on distinct genome evaluations *)
}

(** A small default budget sized for CI smoke runs. *)
val smoke_budget : budget

(** A larger default for the E23 experiment. *)
val default_budget : budget

(** One improvement event: after [te_evals] distinct evaluations, the
    incumbent became [te_genome] with score [te_score]. *)
type trace_entry = {
  te_evals : int;
  te_score : float;
  te_genome : Strategy.genome;
  te_phase : string;  (** ["seed"], ["greedy"], ["beam"] or ["anneal"] *)
}

type result = {
  r_best : Strategy.genome;
  r_score : float;
  r_evals : int;  (** distinct genomes scored *)
  r_trace : trace_entry list;  (** improvements, oldest first *)
}

(** [seeds space] — the deterministic starting population: every
    {!Strategy.catalog} point valid on the space's plane (names kept for
    reporting). *)
val seeds : space -> (string * Strategy.genome) list

(** [neighbors space g] — the deterministic one-step mutation
    neighbourhood of [g] inside [space]: timing nudges (burst round ±1,
    stagger rate/start ±1, noise probability ±0.1, schedule-family
    switches), targeting-rule switches, tactic parameter nudges
    (push direction/rushing, split parity, equivocation skew weights and
    flip block, starve target, chaos drop rate) and plane-legal tactic
    swaps. Every returned genome passes {!Strategy.validate}; the list is
    duplicate-free and never contains [g] itself. Order is fixed — the
    search's determinism rests on it. *)
val neighbors : space -> Strategy.genome -> Strategy.genome list

(** [run space ~seed ~budget objective] — greedy from every seed, then
    beam, then annealing polish; [seed] only feeds the salted annealing
    proposal stream (greedy and beam are derandomized). The result is a
    pure function of [(space, seed, budget, objective)]. *)
val run : space -> seed:int64 -> budget:budget -> objective -> result
