(** Monte-Carlo experiment runner.

    Wraps repeated engine runs with: per-trial seeds derived from one master
    seed (reproducibility), invariant checking on every trial (a violation
    is recorded, and by default aborts the experiment loudly), and summary
    aggregation of the measurements the paper's claims are about. *)

type stats = {
  trials : int;
  rounds : Ba_stats.Summary.t;
  phases : Ba_stats.Summary.t;  (** rounds / rounds_per_phase when given *)
  messages : Ba_stats.Summary.t;
  bits : Ba_stats.Summary.t;
  corruptions : Ba_stats.Summary.t;
  agreement_failures : int;
  validity_failures : int;
  incomplete : int;
  violations : Ba_trace.Checker.violation list;
      (** the first 32 violation entries, in trial order *)
  failures : Supervisor.failure list;
      (** supervised trial failures kept by a [keep_going] policy, in trial
          order; failed trials are excluded from every aggregate above *)
}

(** [monte_carlo ~trials ~seed ~run ()] executes [run ~seed ~trial] for
    [trial] in [0, trials), each with an independent derived seed. Every
    trial runs under {!Supervisor.run_trial}: a raising or round-budget-
    overrunning trial either aborts with full context (the default policy)
    or — under a [keep_going] policy — becomes a {!Supervisor.failure}
    record in [stats.failures] while the remaining trials run.

    @param rounds_per_phase used for the phase summary and Lemma 4 checking.
    @param check override the per-outcome checker (default
    {!Ba_trace.Checker.standard}).
    @param fail_fast raise [Failure] on the first violation (default true —
    experiments must not silently aggregate broken runs). Checker violations
    are science, not infrastructure: they are never converted to failure
    records.
    @param policy supervision policy (default {!Supervisor.default}).
    @param range run only trials [lo, hi) of the experiment (default the
    whole [0, trials) span). Per-trial seeds stay a function of the {e
    global} trial index, so folding range shards back together with
    {!merge_stats} reproduces the unsharded statistics byte-for-byte — the
    contract the campaign layer's checkpoints rely on (DESIGN.md §14).
    [stats.trials] counts only the executed range.
    @param domains run the trials across this many OCaml domains (default
    1, the plain serial loop). The range is cut into contiguous chunks, one
    per domain; each chunk runs the serial loop, the calling domain runs the
    first, and the chunks are joined and folded with {!merge_stats} in trial
    order. Per-trial seeds depend only on the trial index, so every
    aggregate, the failure records and the policy's sink contents are
    identical at any domain count. An abort (a failing trial without
    [keep_going], or a violation under [fail_fast]) cites the lowest
    failing trial at any domain count, and is raised only after every
    spawned domain has been joined. [run] and [check] must not share
    mutable state between trials when [domains > 1].
    @raise Invalid_argument if the range is empty or outside [0, trials),
    or if [domains < 1]. *)
val monte_carlo :
  ?domains:int ->
  ?rounds_per_phase:int ->
  ?check:(Ba_sim.Engine.outcome -> Ba_trace.Checker.violation list) ->
  ?fail_fast:bool ->
  ?policy:Supervisor.policy ->
  ?range:(int * int) ->
  trials:int ->
  seed:int64 ->
  run:(seed:int64 -> trial:int -> Ba_sim.Engine.outcome) ->
  unit ->
  stats

(** [monte_carlo_view ~view ~trials ~seed ~run ()] — the engine-agnostic
    core: [run] may return any native outcome type and [view] projects it
    into the substrate record ({!Ba_sim.Run.outcome}); every aggregate in
    {!stats} is computed from that projection (the [rounds] summary holds
    the span in its native unit — scheduler steps for async outcomes). The
    default [check] is [Ba_trace.Checker.standard_run] composed with
    [view]. {!monte_carlo} is this function at [view = Ba_sim.Engine.to_run]
    with the synchronous record-level checks restored as the default
    checker. Async callers pass [view = Ba_async.Async_engine.to_run] (or
    [Fun.id] for closures that already return substrate outcomes). *)
val monte_carlo_view :
  ?domains:int ->
  ?rounds_per_phase:int ->
  ?check:('o -> Ba_trace.Checker.violation list) ->
  ?fail_fast:bool ->
  ?policy:Supervisor.policy ->
  ?range:(int * int) ->
  view:('o -> Ba_sim.Run.outcome) ->
  trials:int ->
  seed:int64 ->
  run:(seed:int64 -> trial:int -> 'o) ->
  unit ->
  stats

(** [merge_stats a b] — fold two disjoint trial ranges' statistics into one.
    Summary merging is exact ({!Ba_stats.Summary.merge}), counters add, and
    failure records are re-sorted by trial, so folding per-shard stats in
    any order reproduces the single-pass aggregates byte-for-byte. The
    capped [violations] list keeps the first entries of [a] then [b], so it
    matches the single pass when the shards are folded in trial order. *)
val merge_stats : stats -> stats -> stats

(** [trial_seed ~seed ~trial] — the derived per-trial seed (exposed so tests
    can reproduce a single trial of an experiment); an alias of
    {!Supervisor.trial_seed}, which owns the derivation. *)
val trial_seed : seed:int64 -> trial:int -> int64

(** [sweep xs f] — maps [f] over parameter points, keeping the pairing. *)
val sweep : 'a list -> ('a -> 'b) -> ('a * 'b) list
