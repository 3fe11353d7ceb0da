(** Structured experiment reports.

    Every experiment returns a {!t}: the machine-readable claim verdict and
    named scalar metrics (means, CI endpoints, crossover points, success
    probabilities) alongside the rendered ASCII [body] that the CLI prints.
    The JSON/CSV forms exclude [body]; together with {!Json}'s deterministic
    emission this makes the metric payload byte-identical across runs with
    the same seed.

    No wall-clock reads happen here (lint rule D002): elapsed times are
    measured by the [bin/]/[bench/] drivers and passed into
    {!Registry.suite_json}. *)

type verdict =
  | Pass  (** the claim's quantitative bound/criterion held *)
  | Shape_ok
      (** qualitative shape reproduced; no strict bound to test (or a soft
          criterion missed that does not contradict the paper) *)
  | Fail  (** a stated bound or invariant was violated *)

val verdict_to_string : verdict -> string
(** ["pass" | "shape_ok" | "fail"]. *)

val verdict_of_string : string -> verdict option

(** [worst a b] — the more severe of the two ([Fail] > [Shape_ok] > [Pass]);
    used when one report aggregates several checks. *)
val worst : verdict -> verdict -> verdict

(** A named (x, y) curve, e.g. measured rounds vs [t]. *)
type series = { series_name : string; points : (float * float) list }

(** An experiment-level crash: the run closure itself raised before
    producing any per-trial statistics. Replaces the legacy convention of
    smuggling such crashes through a trial [-1] failure record — trial
    indices in [failures] now always refer to real trials. *)
type crash = { crash_seed : int64; crash_error : string; crash_backtrace : string }

type t = {
  id : string;  (** registry id, e.g. "E3" *)
  title : string;
  claim : string;  (** paper reference, e.g. "Theorem 2 (shape)" *)
  verdict : verdict;
  summary : string;  (** one-line paper-vs-measured statement *)
  metrics : (string * float) list;  (** named scalars, deterministic order *)
  series : series list;
  trials : int option;
      (** total Monte-Carlo trials behind the verdict, when the experiment
          reports them (campaign runs always do: [failures] trial indices
          are validated against this span) *)
  failures : Supervisor.failure list;
      (** supervised trial/experiment failures; non-empty forces [Fail] *)
  shard_failures : Campaign.shard_failure list;
      (** campaign shards that exhausted their retries (graceful
          degradation); non-empty forces [Fail] *)
  crash : crash option;  (** experiment-level crash; forces [Fail] *)
  body : string;  (** rendered tables/figures (not serialized) *)
}

(** [make …] — a non-empty [failures] or [shard_failures], or a [crash],
    forces the verdict to [Fail] regardless of the [verdict] argument:
    infrastructure failures are never reported as science. *)
val make :
  id:string ->
  title:string ->
  ?claim:string ->
  ?metrics:(string * float) list ->
  ?series:series list ->
  ?trials:int ->
  ?failures:Supervisor.failure list ->
  ?shard_failures:Campaign.shard_failure list ->
  ?crash:crash ->
  verdict:verdict ->
  summary:string ->
  body:string ->
  unit ->
  t

(** [with_failures r fs] — append supervised failure records to a finished
    report; non-empty [fs] forces the verdict to [Fail]. Drivers use this to
    attach sink-collected trial failures without experiments having to
    thread them. *)
val with_failures : t -> Supervisor.failure list -> t

(** [with_shard_failures r sfs] — append campaign shard-failure records;
    non-empty [sfs] forces the verdict to [Fail]. *)
val with_shard_failures : t -> Campaign.shard_failure list -> t

(** [crash_of_json j] reads a report's optional [crash] field (seed, error,
    backtrace_digest) off the wire. *)
val crash_of_json : Json.t -> (crash, string) result

(** [metric_key s] — canonical snake_case metric name: lowercased, runs of
    non-alphanumerics collapsed to single underscores, no leading/trailing
    underscore (["las-vegas(alpha=2.0)"] → ["las_vegas_alpha_2_0"]). *)
val metric_key : string -> string

(** [to_json r] — the report without [body]. Non-finite metric values are
    serialized as [null] (the {!Json} emitter rejects them as floats). The
    optional [trials], [failures], [shard_failures] and [crash] fields are
    appended only when present/non-empty, so fault-free payloads are
    byte-identical to the pre-supervisor layout. *)
val to_json : t -> Json.t

(** [csv_of_reports rs] — long-form CSV, one row per metric:
    [id,claim,verdict,metric,value]. *)
val csv_of_reports : t list -> string

(** Renders like the legacy report printer, with the verdict prefixed to the
    summary line. *)
val pp : Format.formatter -> t -> unit

(** Version of the suite JSON document layout (see {!Registry.suite_json});
    bump on breaking changes. *)
val schema_version : int
