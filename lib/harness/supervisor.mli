(** Supervised trial execution for the Monte-Carlo runners.

    The paper's robustness story is graceful degradation below the worst
    case; this module gives the harness the same property. A trial that
    raises, or that overruns a deterministic {e simulated-round} budget
    (never wall clock — lint rule D002), no longer kills the whole suite:
    it becomes a structured {!failure} record that flows into
    {!Experiment.stats}, {!Report} and the suite JSON, while the remaining
    trials keep running. Failed trials can optionally be retried a bounded
    number of times with deterministically re-derived seeds, so flaky
    infrastructure is distinguished from deterministic crashes without
    sacrificing reproducibility.

    Every seed here is a pure function of [(master seed, trial, attempt)]:
    the same master seed replays byte-identical failure records. *)

(** Why a trial failed: the [run] closure raised, or the outcome overran the
    policy's simulated-round cap. *)
type kind = Crash | Round_cap

val kind_to_string : kind -> string

(** One supervised trial failure (after exhausting retries). *)
type failure = {
  f_trial : int;  (** trial index within the experiment *)
  f_seed : int64;  (** derived seed of the final attempt *)
  f_attempts : int;  (** total attempts made (>= 1) *)
  f_kind : kind;
  f_error : string;  (** exception text / budget overrun description *)
  f_backtrace : string;  (** 16-hex-char FNV-1a digest of the raw backtrace *)
}

(** [trial_seed ~seed ~trial] — the canonical per-trial seed derivation used
    by all Monte-Carlo runners (formerly [Experiment.trial_seed], still
    re-exported there). *)
val trial_seed : seed:int64 -> trial:int -> int64

(** [retry_seed ~seed ~trial ~attempt] — attempt 0 is [trial_seed]; each
    retry re-mixes deterministically, so retried trials stay reproducible
    and never collide with another trial's stream.
    @raise Invalid_argument if [attempt < 0]. *)
val retry_seed : seed:int64 -> trial:int -> attempt:int -> int64

(** Accumulates failure records across runner calls so drivers can attach
    them to the experiment's {!Report} without threading state through every
    experiment. NOT domain-safe: create one per experiment invocation and
    touch it only from the invoking domain ({!Experiment.monte_carlo}
    merges chunk failures on the calling domain before recording). *)
type sink

val sink : unit -> sink

(** [record s fs] appends failure records (runners call this). *)
val record : sink -> failure list -> unit

(** [drain s] returns everything recorded so far, sorted by trial index, and
    empties the sink. *)
val drain : sink -> failure list

type policy = {
  round_cap : int option;
      (** watchdog: fail any trial whose outcome reports a simulated span
          (rounds for the synchronous engine, scheduler steps for the
          asynchronous one) above this (a runaway/non-terminating
          protocol); [None] disables the watchdog *)
  retries : int;  (** extra attempts per failing trial (default 0) *)
  keep_going : bool;
      (** [true]: a failure that survives retries is recorded and the
          experiment continues; [false]: it is re-raised as [Failure] (the
          legacy abort behaviour, with the failure's full context) *)
  failure_sink : sink option;
      (** where runners additionally record kept failures, if anywhere *)
}

(** No watchdog, no retries, abort on trial failure, no sink — the exact
    pre-supervisor contract. *)
val default : policy

(** [supervised ?round_cap ?retries ?sink ()] — a keep-going policy.
    @raise Invalid_argument if [retries < 0] or [round_cap <= 0]. *)
val supervised : ?round_cap:int -> ?retries:int -> ?sink:sink -> unit -> policy

(** [run_trial ~policy ~seed ~trial ~view ~run] — execute one trial under
    the exception barrier and watchdog, retrying per the policy.
    [Ok outcome] on success; [Error failure] (the last attempt's failure)
    once the attempt budget is exhausted. Never raises through the barrier —
    checker violations are out of scope (they are science, handled by the
    runners' [fail_fast]), only [run] itself is barriered.

    The runner is polymorphic in the engine's native outcome: [view]
    projects it into the substrate record ({!Ba_sim.Run.outcome}) so the
    watchdog can compare the simulated span against [round_cap] in its
    native unit — rounds for the synchronous engine
    ([view = Ba_sim.Engine.to_run]), scheduler steps for the asynchronous
    one ([view = Ba_async.Async_engine.to_run], or [Fun.id] when [run]
    already returns a substrate outcome). [view] is only called when the
    watchdog is armed. *)
val run_trial :
  policy:policy ->
  seed:int64 ->
  trial:int ->
  view:('o -> Ba_sim.Run.outcome) ->
  run:(seed:int64 -> trial:int -> 'o) ->
  ('o, failure) result

(** [failure_message f] — one-line human rendering (also used by
    {!raise_failure} and {!pp_failure}). *)
val failure_message : failure -> string

(** [raise_failure f] — raise [Failure] carrying the record's context. *)
val raise_failure : failure -> 'a

val pp_failure : Format.formatter -> failure -> unit

(** JSON object: trial, seed, attempts, kind, error, backtrace_digest (the
    suite document's [failures] entries). *)
val failure_to_json : failure -> Json.t

(** [failure_of_json j] — parse a {!failure_to_json} object back, validating
    every field (trial >= 0, decimal int64 seed, attempts >= 1, known kind,
    16-hex digest). Round-trips exactly, so campaign checkpoints preserve
    failure records byte-for-byte across a resume. *)
val failure_of_json : Json.t -> (failure, string) result

(** [is_digest s] — true iff [s] is a 16-char lowercase hex digest (the
    [backtrace_digest] wire format). *)
val is_digest : string -> bool

(** [digest s] — 64-bit FNV-1a hex digest (exposed for tests). *)
val digest : string -> string
