type stats = {
  trials : int;
  rounds : Ba_stats.Summary.t;
  phases : Ba_stats.Summary.t;
  messages : Ba_stats.Summary.t;
  bits : Ba_stats.Summary.t;
  corruptions : Ba_stats.Summary.t;
  agreement_failures : int;
  validity_failures : int;
  incomplete : int;
  violations : Ba_trace.Checker.violation list;
  failures : Supervisor.failure list;
}

let trial_seed = Supervisor.trial_seed

let max_kept_violations = 32

let rec take n = function [] -> [] | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(* Folding trial ranges in trial order keeps the first [max_kept_violations]
   violation entries in trial order. *)
let merge_stats a b =
  { trials = a.trials + b.trials;
    rounds = Ba_stats.Summary.merge a.rounds b.rounds;
    phases = Ba_stats.Summary.merge a.phases b.phases;
    messages = Ba_stats.Summary.merge a.messages b.messages;
    bits = Ba_stats.Summary.merge a.bits b.bits;
    corruptions = Ba_stats.Summary.merge a.corruptions b.corruptions;
    agreement_failures = a.agreement_failures + b.agreement_failures;
    validity_failures = a.validity_failures + b.validity_failures;
    incomplete = a.incomplete + b.incomplete;
    violations = take max_kept_violations (a.violations @ b.violations);
    failures =
      List.stable_sort
        (fun (x : Supervisor.failure) y -> compare x.f_trial y.f_trial)
        (a.failures @ b.failures) }

let check_range ~trials = function
  | None -> (0, trials)
  | Some (lo, hi) ->
      if lo < 0 || hi > trials || lo >= hi then
        invalid_arg "Experiment.monte_carlo: range outside [0, trials) or empty";
      (lo, hi)

(* The serial loop over trials [lo, hi). It raises on the first failing
   trial unless the policy keeps going, and on the first violation under
   [fail_fast]; it never writes the policy's sink. Everything aggregated
   comes from the [view] projection, so the synchronous wrapper and async
   callers share one loop. *)
let run_range ~rounds_per_phase ~check ~fail_fast ~(policy : Supervisor.policy) ~view ~seed
    ~run (lo, hi) =
  let rounds = Ba_stats.Summary.create ()
  and phases = Ba_stats.Summary.create ()
  and messages = Ba_stats.Summary.create ()
  and bits = Ba_stats.Summary.create ()
  and corruptions = Ba_stats.Summary.create () in
  let agreement_failures = ref 0 and validity_failures = ref 0 and incomplete = ref 0 in
  let kept = ref [] and kept_count = ref 0 in
  let failures = ref [] in
  for trial = lo to hi - 1 do
    match Supervisor.run_trial ~policy ~seed ~trial ~view ~run with
    | Error f ->
        if not policy.keep_going then Supervisor.raise_failure f;
        failures := f :: !failures
    | Ok o ->
        let ro = view o in
        Ba_stats.Summary.add_int rounds (Ba_sim.Run.span_units ro.Ba_sim.Run.span);
        (match rounds_per_phase with
        | Some rpp when rpp > 0 ->
            Ba_stats.Summary.add phases
              (float_of_int (Ba_sim.Run.span_units ro.Ba_sim.Run.span) /. float_of_int rpp)
        | Some _ | None -> ());
        Ba_stats.Summary.add_int messages (Ba_sim.Metrics.messages ro.Ba_sim.Run.metrics);
        Ba_stats.Summary.add_int bits (Ba_sim.Metrics.bits ro.Ba_sim.Run.metrics);
        Ba_stats.Summary.add_int corruptions ro.Ba_sim.Run.corruptions_used;
        if not (Ba_sim.Run.agreement_holds ro) then incr agreement_failures;
        if not (Ba_sim.Run.validity_holds ro) then incr validity_failures;
        if not ro.Ba_sim.Run.completed then incr incomplete;
        let vs = check o in
        if vs <> [] then begin
          List.iter
            (fun v ->
              if !kept_count < max_kept_violations then begin
                kept := v :: !kept;
                incr kept_count
              end)
            vs;
          if fail_fast then
            failwith
              (Format.asprintf "experiment trial %d (seed %Ld): %a" trial
                 (trial_seed ~seed ~trial)
                 (Format.pp_print_list ~pp_sep:Format.pp_print_space
                    Ba_trace.Checker.pp_violation)
                 vs)
        end
  done;
  { trials = hi - lo;
    rounds;
    phases;
    messages;
    bits;
    corruptions;
    agreement_failures = !agreement_failures;
    validity_failures = !validity_failures;
    incomplete = !incomplete;
    violations = List.rev !kept;
    failures = List.rev !failures }

(* [domains] contiguous chunks of [lo, hi): the first runs on the calling
   domain, the rest on spawned ones, and the results fold in trial order.
   Joining in order re-raises the exception of the lowest chunk that
   raised, so an aborted run cites the lowest failing trial at any domain
   count. *)
let run_chunks ~domains ~chunk (lo, hi) =
  let k = min domains (hi - lo) in
  let bound d = lo + (d * (hi - lo) / k) in
  (* Backtrace recording is domain-local in OCaml 5: propagate the calling
     domain's setting so a failure record's backtrace digest does not
     depend on which domain ran the trial. *)
  let record_bt = Printexc.backtrace_status () in
  let handles =
    List.init (k - 1) (fun d ->
        Domain.spawn (fun () ->
            Printexc.record_backtrace record_bt;
            chunk (bound (d + 1), bound (d + 2))))
  in
  (* Every spawned domain is joined before an exception escapes, including
     one raised by the calling domain's own chunk. *)
  let joined = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !joined then
        List.iter
          (* lint: allow D008 -- teardown join must not mask the primary raise *)
          (fun h -> try ignore (Domain.join h : stats) with _ -> ())
          handles)
    (fun () ->
      let s0 = chunk (bound 0, bound 1) in
      let ss = List.map Domain.join handles in
      joined := true;
      List.fold_left merge_stats s0 ss)

let monte_carlo_view ?(domains = 1) ?rounds_per_phase ?check ?(fail_fast = true)
    ?(policy = Supervisor.default) ?range ~view ~trials ~seed ~run () =
  if trials <= 0 then invalid_arg "Experiment.monte_carlo: trials <= 0";
  if domains < 1 then invalid_arg "Experiment.monte_carlo: domains < 1";
  let range = check_range ~trials range in
  let check =
    match check with
    | Some f -> f
    | None -> fun o -> Ba_trace.Checker.standard_run (view o)
  in
  let stats =
    run_chunks ~domains
      ~chunk:(run_range ~rounds_per_phase ~check ~fail_fast ~policy ~view ~seed ~run)
      range
  in
  Option.iter (fun s -> Supervisor.record s stats.failures) policy.failure_sink;
  stats

let monte_carlo ?domains ?rounds_per_phase ?check ?fail_fast ?policy ?range ~trials ~seed
    ~run () =
  (* The synchronous default checker keeps the record-level lemma checks
     (decided coherence, frozen finishers, termination gap) on top of the
     substrate-level audit. *)
  let check =
    match check with
    | Some f -> f
    | None -> fun o -> Ba_trace.Checker.standard ?rounds_per_phase o
  in
  monte_carlo_view ?domains ?rounds_per_phase ~check ?fail_fast ?policy ?range
    ~view:Ba_sim.Engine.to_run ~trials ~seed ~run ()

let sweep xs f = List.map (fun x -> (x, f x)) xs
