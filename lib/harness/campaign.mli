(** Crash-tolerant campaign layer: deterministic shard planning and the
    worker-supervision state machine.

    A {e campaign} runs a large Monte-Carlo trial span [0, trials) as fixed
    shards, each executed by a worker process that writes a validated
    {!Checkpoint} and exits. This module owns everything deterministic
    about that scheme — the shard partition (a pure function of the trial
    count and shard size), the capped, seed-jittered retry backoff
    (measured in {e scheduler ticks}, never wall clock — lint rule D002),
    and the supervision state machine that decides, from a stream of
    driver-observed events, which shards to (re)start, which hung workers
    to stop, and when a shard has exhausted its retries and degrades to a
    structured {!shard_failure} record instead of aborting the campaign.

    The process driver ([ba_sweep --workers]) is a thin impure shell: it
    spawns workers, polls them, translates what it sees into {!event}s and
    executes the returned {!action}s. Keeping the policy pure makes
    crash/retry/resume behaviour unit-testable without spawning a single
    process, and keeps this module free of wall-clock and [Unix]
    dependencies. *)

(** One shard: trials [s_lo, s_hi) of the campaign span. Trial seeds are
    derived from the {e global} trial index ({!Supervisor.trial_seed}), so
    shard results are byte-identical to the same trials of an unsharded
    run. *)
type shard = { s_index : int; s_lo : int; s_hi : int }

(** [plan ~trials ~shard_size] — partition [0, trials) into consecutive
    shards of [shard_size] trials (the last shard may be short). The plan
    is a pure function of its arguments: every worker and every resume
    recomputes the identical partition.
    @raise Invalid_argument if [trials <= 0] or [shard_size <= 0]. *)
val plan : trials:int -> shard_size:int -> shard list

val shard_trials : shard -> int

(** Why a shard was given up on: its worker process died (killed, OOM,
    crash), made no progress for the configured number of ticks, or exited
    cleanly but left a missing/corrupt/mismatched checkpoint. *)
type shard_failure_kind = Worker_lost | Worker_stalled | Bad_checkpoint

val shard_failure_kind_to_string : shard_failure_kind -> string

(** A shard that exhausted its retry budget: the campaign's graceful
    degradation record (merged suite JSON [shard_failures] entries —
    validated by [ba_json_check]). *)
type shard_failure = {
  sf_shard : int;
  sf_lo : int;
  sf_hi : int;
  sf_attempts : int;  (** total attempts made (>= 1) *)
  sf_kind : shard_failure_kind;
  sf_error : string;
}

val shard_failure_to_json : shard_failure -> Json.t

val shard_failure_of_json : Json.t -> (shard_failure, string) result

(** [backoff_ticks ~seed ~shard ~attempt ~cap] — scheduler ticks to wait
    before retry number [attempt + 1] of a shard whose attempt [attempt]
    (1-based) just failed: exponential in the attempt with a deterministic
    jitter drawn from a re-derived retry seed (a {!Supervisor.retry_seed}
    stream salted away from the trial seeds), capped at [cap]. Pure, so
    retry schedules replay identically.
    @raise Invalid_argument if [attempt < 1] or [cap < 1]. *)
val backoff_ticks : seed:int64 -> shard:int -> attempt:int -> cap:int -> int

type config = {
  workers : int;  (** maximum concurrently running shard workers (>= 1) *)
  shard_retries : int;  (** extra attempts per failing shard (>= 0) *)
  stall_ticks : int;
      (** heartbeat-by-progress: a worker that has produced nothing for
          this many ticks counts as hung and is stopped (>= 1) *)
  backoff_cap : int;  (** upper bound on any retry backoff, in ticks (>= 1) *)
  seed : int64;  (** campaign master seed (jitters the backoff schedule) *)
}

(** What the driver observed. Events referencing a shard the machine is not
    waiting on (already done, already failed) are ignored — a worker
    stopped for stalling may still exit, or even complete, afterwards; a
    late [Completed] is accepted and cancels the pending retry. *)
type event =
  | Tick  (** one scheduler tick elapsed *)
  | Progress of int
      (** the shard's worker produced observable output since the last tick
          (heartbeat-by-progress); resets its stall clock *)
  | Completed of int  (** a validated checkpoint exists for this shard *)
  | Invalid of int * string
      (** the shard's worker finished but its checkpoint is missing,
          unparseable, or does not match the campaign *)
  | Exited of int * string  (** the shard's worker died abnormally *)

(** What the driver must do. [Start] spawns a worker for the shard (the
    attempt number is informational — trial seeds do not depend on it, so
    retried shards reproduce byte-identical checkpoints); [Stop] kills the
    shard's hung worker; [Give_up] reports graceful degradation. *)
type action =
  | Start of { shard : shard; attempt : int }
  | Stop of int
  | Give_up of shard_failure

type state

(** [create cfg ~plan ~completed] — initial state with the [completed]
    shard indices (validated checkpoints found by a resume scan) already
    done; returns the first wave of [Start] actions.
    @raise Invalid_argument on an invalid config, an empty plan, or a
    [completed] index outside the plan. *)
val create : config -> plan:shard list -> completed:int list -> state * action list

(** [step st ev] — advance the machine. The state is updated in place and
    returned for convenience; actions are in deterministic order (lowest
    shard first). *)
val step : state -> event -> state * action list

(** No shard is pending, running, or waiting to retry. *)
val finished : state -> bool

(** Shard indices whose workers should currently be running, ascending. *)
val running : state -> int list

(** Completed shard indices, ascending. *)
val completed : state -> int list

(** Shards that exhausted their retries, by shard index. *)
val failed : state -> shard_failure list

val shards_done : state -> int

(** Trials covered by completed shards (progress reporting). *)
val trials_done : state -> int
