(** Schema for the committed micro-benchmark baseline ([BENCH_micro.json])
    and the regression comparison behind [bin/ba_bench_diff] and the
    [@perf-smoke] alias (DESIGN.md §10).

    A document is a set of named metrics (ns/call, as measured by
    [bench/main.exe]) plus a tolerance policy. Comparison
    normalizes every metric by a designated {e calibration} metric
    (default: a CPU-bound PRNG primitive) so the committed baseline is
    meaningful across machines of different absolute speed; a metric
    regresses when its normalized ratio exceeds its tolerance band. *)

type metric = {
  m_name : string;
  m_ns : float;  (** measured cost, nanoseconds per call *)
  m_tolerance : float option;
      (** per-metric allowed regression factor; [None] = document default *)
  m_note : float option;
      (** informational [pre_batching_ns]: the pre-batched-plane measurement
          kept alongside the baseline for provenance (never compared) *)
}

type doc = {
  schema_version : int;
  calibration : string option;
      (** name of the metric used to normalize cross-machine comparisons *)
  default_tolerance : float;
  metrics : metric list;
}

val schema_version : int

(** Allowed regression factor applied when neither the metric nor the
    document carries one: current/baseline (normalized) above this fails. *)
val default_tolerance : float

(** [make ?calibration ?tolerance ?tolerances metrics] — build a document
    from [(name, ns_per_call)] pairs. [tolerances] attaches per-metric
    overrides (e.g. a wall-clock-scale micro that is noisier than the
    ns-scale ones); every named metric must be in [metrics]. Per-metric
    tolerances take precedence over both the comparison's
    [?default_tolerance] and the document default (see {!compare_docs}).
    @raise Invalid_argument on duplicate names, non-positive or non-finite
    measurements, tolerances below 1, a tolerance naming an absent metric,
    or a calibration name not present. *)
val make :
  ?calibration:string ->
  ?tolerance:float ->
  ?tolerances:(string * float) list ->
  (string * float) list ->
  doc

val to_json : doc -> Json.t

(** [of_json j] — parse and validate a document; [Error] describes the first
    schema violation. *)
val of_json : Json.t -> (doc, string) result

val find : doc -> string -> metric option

type verdict = {
  v_name : string;
  v_baseline : float;  (** normalized baseline cost *)
  v_current : float;  (** normalized current cost; [nan] when missing *)
  v_ratio : float;  (** current/baseline *)
  v_limit : float;  (** allowed ratio *)
  v_regressed : bool;
}

(** [compare_docs ?default_tolerance ~baseline ~current ()] — one verdict per
    baseline metric (a metric missing from [current] regresses; extra
    metrics in [current] are ignored). The calibration metric itself is
    excluded — it is the unit of measure. [default_tolerance] overrides the
    document-level default (per-metric tolerances still win). *)
val compare_docs :
  ?default_tolerance:float -> baseline:doc -> current:doc -> unit -> (verdict list, string) result
