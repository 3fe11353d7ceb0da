(** Typed experiment registry.

    Each claim experiment (E1–E23, DESIGN.md §5) is described once by a
    {!descriptor} — id, title, paper claim, tags, and a quick/full runner
    returning a structured {!Report.t}. The registry is an immutable
    collection built with {!of_list} (duplicate ids are rejected at
    construction time), so there is no module-level mutable state to share
    across domains (lint rule D003). [ba_sweep] iterates it instead of
    hand-maintaining an experiment list. *)

type tag = Coin | Scaling | Complexity | Baseline | Ablation | Async | Robustness

val tag_to_string : tag -> string

(** Case-insensitive; [None] for unknown names. *)
val tag_of_string : string -> tag option

val all_tags : tag list

(** A sharded Monte-Carlo campaign form of an experiment (DESIGN.md §14):
    instead of one opaque [run], the experiment exposes its trial count,
    a shard size, a range runner and a report builder, so the campaign
    driver ([ba_sweep --workers]) can partition trials across checkpointed
    worker processes and fold the shards back into the same report the
    unsharded run would have produced. [c_run]'s statistics must depend
    only on [(seed, lo, hi)] — global trial indices seed each trial, so
    shard merges are byte-identical to a single [lo = 0, hi = trials]
    pass. *)
type campaign = {
  c_trials : quick:bool -> int;  (** campaign trial count per profile *)
  c_shard_size : quick:bool -> int;  (** trials per shard (>= 1) *)
  c_run :
    policy:Supervisor.policy ->
    domains:int ->
    quick:bool ->
    seed:int64 ->
    lo:int ->
    hi:int ->
    Experiment.stats;  (** run trials [lo, hi) of the campaign span *)
  c_report : quick:bool -> seed:int64 -> trials:int -> Experiment.stats -> Report.t;
      (** fold merged campaign statistics into the experiment's report *)
}

type descriptor = {
  id : string;  (** unique, e.g. "E3" (matched case-insensitively) *)
  title : string;
  claim : string;  (** paper reference, e.g. "Theorem 2 (shape)" *)
  tags : tag list;
  run : policy:Supervisor.policy -> domains:int -> quick:bool -> seed:int64 -> Report.t;
      (** [policy] supervises the experiment's Monte-Carlo trials — drivers
          pass a [keep_going] policy with a sink to collect trial failures
          instead of aborting; pass {!Supervisor.default} for the legacy
          abort-on-crash behaviour. [domains] runs the experiment's
          Monte-Carlo trials across that many OCaml domains
          ({!Experiment.monte_carlo}); experiments whose trials share
          mutable state ignore it. Pass 1 for the serial loop — reports are
          byte-identical either way, only wall-clock changes. *)
  campaign : campaign option;
      (** the experiment's campaign form, when it has one ([ba_sweep
          --workers] refuses experiments without it) *)
}

type t

exception Duplicate_id of string

(** [of_list ds] — build a registry, preserving order.
    @raise Duplicate_id if two descriptors share an id (case-insensitive). *)
val of_list : descriptor list -> t

(** Registration order. *)
val all : t -> descriptor list

val ids : t -> string list

(** Case-insensitive id lookup. *)
val find : t -> string -> descriptor option

val with_tag : t -> tag -> descriptor list

val size : t -> int

(** [suite_json ~seed ~profile ~entries ()] — the schema-versioned suite
    document ([Report.schema_version]): seed, profile, and one object per
    experiment (id, claim, tags, title, verdict, summary, metrics, series,
    and — when provided — the driver-measured wall time). Everything except
    [wall_seconds] is a pure function of the seed, so two runs with the same
    seed produce byte-identical metric payloads.

    @param suite suite name (default ["adaptive_ba_experiments"]; campaign
    merges use ["adaptive_ba_campaign"]).
    @param campaign [(trials, shard_size, shards)] metadata block — only
    run-shape facts that are pure functions of the campaign parameters;
    worker counts and wall times are deliberately excluded so merged
    campaign documents are byte-identical for every [--workers K]. *)
val suite_json :
  ?suite:string ->
  ?campaign:int * int * int ->
  seed:int64 ->
  profile:string ->
  entries:(descriptor * Report.t * float option) list ->
  unit ->
  Json.t
