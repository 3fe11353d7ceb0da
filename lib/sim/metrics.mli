(** CONGEST-style cost accounting for a protocol run.

    A message is counted per directed edge per round (broadcast to [n-1]
    recipients = [n-1] messages). Bits are the payload size as declared by
    the protocol's [msg_bits]; the paper's CONGEST model allows [O(log n)]
    bits per edge per round, which the engine checks when
    [congest_limit_bits] is set. *)

type t

val create : unit -> t

(** [record_message m ~bits ~byzantine] counts one delivered point-to-point
    message of [bits] payload bits and [words] machine words ([?words]
    defaults to 1 — every payload occupies at least one word; see
    {!words}); [byzantine] marks sender corruption.
    @raise Invalid_argument if [words < 0]. *)
val record_message : ?words:int -> t -> bits:int -> byzantine:bool -> unit

(** [record_broadcast m ~bits ~copies ~byzantine] counts one broadcast of a
    [bits]-bit, [words]-word payload delivered to [copies] recipients —
    arithmetically identical to [copies] calls of {!record_message} (the
    batched plane's benign fast path meters whole broadcasts at once). A
    zero-copy broadcast records nothing, matching per-link metering.
    @raise Invalid_argument if [copies < 0] or [words < 0]. *)
val record_broadcast : ?words:int -> t -> bits:int -> copies:int -> byzantine:bool -> unit

(** [record_round m] counts one synchronous round. *)
val record_round : t -> unit

val rounds : t -> int

(** [messages m] is the total delivered messages (honest + Byzantine). *)
val messages : t -> int

val byzantine_messages : t -> int

(** [bits m] is the total payload bits delivered. *)
val bits : t -> int

(** [words m] is the total payload size in machine words — the cost unit of
    the word-complexity literature (Cohen–Keidar–Spiegelman, "Make Every
    Word Count"): a word holds a value or a counter, so a vote-style
    message is one word regardless of its O(log n)-bit encoding, while a
    multi-value payload (e.g. an EIG subtree) counts each carried word.
    Sized by the protocol's [msg_words] (DESIGN.md §13). *)
val words : t -> int

(** [max_bits_per_message m] is the largest single payload seen — compare
    against the CONGEST budget. *)
val max_bits_per_message : t -> int

(** [record_congest_violation m] / [congest_violations m] — messages whose
    payload exceeded the engine's configured CONGEST limit. *)
val record_congest_violation : t -> unit

(** [record_congest_violations m k] — batched form: [k] violating deliveries
    at once. @raise Invalid_argument if [k < 0]. *)
val record_congest_violations : t -> int -> unit

val congest_violations : t -> int

(** Benign fault-injection accounting (see {!Faults}): every injected fault
    event is metered here, so a run's fault exposure is part of its outcome
    and the checkers can audit that a fault-free configuration really saw no
    faults. *)

val record_link_drop : t -> unit

val record_link_duplicate : t -> unit

val record_link_corruption : t -> unit

(** [record_crash_silence m] — one node kept silent for one round by a
    crash-recovery schedule. *)
val record_crash_silence : t -> unit

val link_drops : t -> int

val link_duplicates : t -> int

val link_corruptions : t -> int

val crash_silences : t -> int

(** [fault_events m] — total injected fault events (drops + duplicates +
    corruptions + crash silences). *)
val fault_events : t -> int

val pp : Format.formatter -> t -> unit
