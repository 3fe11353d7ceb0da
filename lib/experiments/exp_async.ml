open Exp_common

module Report = Ba_harness.Report
module Checker = Ba_trace.Checker

(* E17 — the asynchronous contrast of the paper's Section 1.3: under the
   same full-information adaptive adversary, asynchrony is much harder —
   Ben-Or/Bracha are exponential, the best known polynomial bound
   (Huang-Pettie-Zhu) is O(n^4). Measure classic async Ben-Or (t < n/5,
   private coins) under an adversarial random scheduler plus Byzantine
   splitter, against synchronous Algorithm 3 at the same (n, t), reporting per-size delivered-bit
   complexity alongside deliveries. Async trials run through the unified
   substrate: {!Setups.make_async} produces {!Ba_sim.Run.outcome}s and
   {!Ba_harness.Supervisor.run_trial} supervises them exactly like the
   synchronous arm's Monte-Carlo loop. On the actor-runtime engine
   (DESIGN.md §15) the splitter is an [Opaque] adversary — corrupting and
   injecting — so these trials exercise the reference view/act loop on the
   mailbox slab; payloads are byte-stable across the rebuild. *)
let e17 ~policy ~domains ~quick ~seed =
  let ns = if quick then [ 6; 11; 16 ] else [ 6; 11; 16; 21; 26 ] in
  let trials = if quick then 10 else 25 in
  let async_failures = ref [] in
  let data =
    List.map
      (fun n ->
        let t = (n - 1) / 5 in
        let arun =
          Setups.make_async ~protocol:Setups.Async_ben_or ~scheduler:Setups.Splitter_sched ~n
            ~t ()
        in
        let inputs = Array.init n (fun i -> i mod 2) in
        let deliveries = Ba_stats.Summary.create () in
        let bits = Ba_stats.Summary.create () in
        let eff_rounds = Ba_stats.Summary.create () in
        let clean = ref 0 in
        (* Serial: the async arm accumulates into shared summaries. *)
        for trial = 0 to trials - 1 do
          match
            Ba_harness.Supervisor.run_trial ~policy
              ~seed:(seed_for ~seed ("e17", n))
              ~trial ~view:Fun.id
              ~run:(fun ~seed ~trial:_ -> arun.Setups.arun_exec ~inputs ~seed ())
          with
          | Error f ->
              if not policy.keep_going then Ba_harness.Supervisor.raise_failure f;
              async_failures := f :: !async_failures
          | Ok ro ->
              let delivered = Ba_sim.Metrics.messages ro.Ba_sim.Run.metrics in
              if ro.Ba_sim.Run.completed && Ba_sim.Run.agreement_holds ro then incr clean;
              Ba_stats.Summary.add_int deliveries delivered;
              Ba_stats.Summary.add_int bits (Ba_sim.Metrics.bits ro.Ba_sim.Run.metrics);
              (* One async round = two broadcast waves ~ 2n^2 deliveries. *)
              Ba_stats.Summary.add eff_rounds
                (float_of_int delivered /. (2.0 *. float_of_int (n * n)))
        done;
        (* Sync Algorithm 3 at the same (n, t) under its killer. *)
        let sync_rounds =
          if t = 0 then Ba_stats.Summary.of_array [| 6.0 |]
          else begin
            let run =
              Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 })
                ~adversary:Setups.Committee_killer ~n ~t
            in
            let inputs = Setups.inputs Setups.Split ~n ~t in
            let stats =
              Ba_harness.Experiment.monte_carlo ~domains ~policy ~trials
                ~seed:(seed_for ~seed ("e17-sync", n))
                ~run:(fun ~seed ~trial:_ -> run.exec ~record:false ~inputs ~seed ())
                ()
            in
            stats.rounds
          end
        in
        (n, t, !clean, eff_rounds, deliveries, bits, sync_rounds))
      ns
  in
  Option.iter
    (fun s -> Ba_harness.Supervisor.record s (List.rev !async_failures))
    policy.failure_sink;
  let rows =
    List.map
      (fun (n, t, clean, eff_rounds, deliveries, bits, sync_rounds) ->
        [ string_of_int n; string_of_int t;
          Printf.sprintf "%d/%d" clean trials;
          Ba_harness.Table.fmt_mean_ci eff_rounds;
          Ba_harness.Table.fmt_float (Ba_stats.Summary.mean deliveries);
          Ba_harness.Table.fmt_float (Ba_stats.Summary.mean bits);
          Ba_harness.Table.fmt_mean_ci sync_rounds ])
      data
  in
  let eff_means =
    List.map (fun (_, _, _, eff, _, _, _) -> Ba_stats.Summary.mean eff) data
  in
  let grows =
    match (eff_means, List.rev eff_means) with
    | first :: _, last :: _ -> last > first
    | _ -> false
  in
  Report.make ~id:"E17"
    ~title:"The asynchronous contrast: Ben-Or (async, t < n/5) vs Algorithm 3 (sync, t < n/3)"
    ~claim:"Async contrast (Sec. 1.3)"
    ~metrics:
      (List.concat_map
         (fun (n, _, clean, eff_rounds, deliveries, bits, sync_rounds) ->
           [ (Printf.sprintf "async_eff_rounds_n%d" n, Ba_stats.Summary.mean eff_rounds);
             (Printf.sprintf "async_deliveries_n%d" n, Ba_stats.Summary.mean deliveries);
             (Printf.sprintf "async_bits_n%d" n, Ba_stats.Summary.mean bits);
             (Printf.sprintf "async_clean_n%d" n, float_of_int clean);
             (Printf.sprintf "sync_rounds_n%d" n, Ba_stats.Summary.mean sync_rounds) ])
         data
      @ [ ("trials", float_of_int trials) ])
    ~series:
      [ { Report.series_name = "async_eff_rounds_vs_n";
          points = List.map2 (fun (n, _, _, _, _, _, _) m -> (float_of_int n, m)) data eff_means } ]
    ~verdict:(if grows then Report.Pass else Report.Shape_ok)
    ~summary:
      "Paper Sec. 1.3: the same adversary model is far harder without synchrony — classic \
       async protocols are exponential and even the best known polynomial bound is O(n^4). \
       Measured: async Ben-Or needs private coins to align across ~n undecided nodes \
       (effective rounds grow quickly with n, at a fifth of the resilience), while the \
       synchronous committee protocol stays flat at full t < n/3."
    ~body:
      (Ba_harness.Table.render ~title:"adversarial scheduler + splitter vs committee-killer"
         ~headers:[ "n"; "t(async)"; "async clean"; "async eff. rounds"; "async deliveries";
                    "async bits"; "sync alg3 rounds (t=max)" ]
         rows)
    ()

(* E20 — async robustness, the asynchronous mirror of E18: Ben-Or and
   Bracha RBC under link drops/duplications/corruptions injected into
   scheduler-visible delivery, with the safety properties (agreement,
   validity) audited on every trial through the substrate checkers. Termination is NOT demanded under faults — an async protocol
   starved of messages may legitimately never decide, which shows up as
   [incomplete] (deadlock or step-cap) and is reported as degradation. The
   fault-free control arm, however, must be perfect: the model assumes
   reliable links. [domains] parallelizes whole trials
   ({!Ba_harness.Experiment.monte_carlo_view}); within a trial the random
   scheduler picks straight from the engine's slab, one rank draw per
   step (DESIGN.md §15). *)
let e20 ~policy ~domains ~quick ~seed =
  let trials = if quick then 6 else 15 in
  let arms =
    [ ("control", None);
      ("drop=0.05", Some { Setups.no_faults with Setups.fs_drop = 0.05 });
      ("drop+dup", Some { Setups.no_faults with Setups.fs_drop = 0.05; fs_duplicate = 0.05 });
      ("corrupt=0.02", Some { Setups.no_faults with Setups.fs_corrupt = 0.02 }) ]
  in
  let protocols =
    if quick then
      [ ("ben-or", Setups.Async_ben_or, 8, 1);
        ("rbc", Setups.Async_bracha { broadcaster = 0 }, 7, 2) ]
    else
      [ ("ben-or", Setups.Async_ben_or, 11, 2);
        ("rbc", Setups.Async_bracha { broadcaster = 0 }, 10, 3) ]
  in
  let data =
    List.concat_map
      (fun (pname, protocol, n, t) ->
        let inputs =
          match protocol with
          | Setups.Async_ben_or -> Array.init n (fun i -> i mod 2)
          | Setups.Async_bracha _ -> Array.make n 1
        in
        List.map
          (fun (label, faults) ->
            let arun =
              Setups.make_async ?faults ~protocol ~scheduler:Setups.Random_sched ~n ~t ()
            in
            let stats =
              Ba_harness.Experiment.monte_carlo_view ~domains ~fail_fast:false ~policy
                ~check:(fun ro -> Checker.agreement_run ro @ Checker.validity_run ro)
                ~view:Fun.id ~trials
                ~seed:(seed_for ~seed ("e20", pname, label))
                ~run:(fun ~seed ~trial:_ -> arun.Setups.arun_exec ~inputs ~seed ())
                ()
            in
            (pname, label, faults, n, t, stats))
          arms)
      protocols
  in
  let safety_failures =
    List.fold_left
      (fun acc (_, _, _, _, _, s) ->
        acc + List.length s.Ba_harness.Experiment.violations)
      0 data
  in
  (* The async model still assumes reliable (if arbitrarily slow) links:
     the control arm must terminate cleanly with zero violations, while the
     faulted arms characterize degradation outside the model. *)
  let control_broken =
    List.exists
      (fun (_, label, _, _, _, s) ->
        label = "control"
        && (s.Ba_harness.Experiment.violations <> [] || s.incomplete > 0 || s.failures <> []))
      data
  in
  let rows =
    List.map
      (fun (pname, label, _, n, t, stats) ->
        [ pname; Printf.sprintf "n=%d,t=%d" n t; label;
          Printf.sprintf "%d/%d" (trials - stats.Ba_harness.Experiment.incomplete) trials;
          string_of_int (List.length stats.violations);
          Ba_harness.Table.fmt_float (Ba_stats.Summary.mean stats.rounds);
          Ba_harness.Table.fmt_float (Ba_stats.Summary.mean stats.messages);
          Ba_harness.Table.fmt_float (Ba_stats.Summary.mean stats.bits) ])
      data
  in
  let arm_index label =
    let rec go i = function
      | [] -> 0
      | (l, _) :: _ when l = label -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 arms
  in
  let completion_series pname =
    { Report.series_name = Printf.sprintf "completion_rate_by_arm_%s" (mkey pname);
      points =
        List.filter_map
          (fun (p, label, _, _, _, stats) ->
            if p = pname then
              Some
                ( float_of_int (arm_index label),
                  float_of_int (trials - stats.Ba_harness.Experiment.incomplete)
                  /. float_of_int trials )
            else None)
          data }
  in
  Report.make ~id:"E20"
    ~title:"Async agreement under benign link faults: Ben-Or and Bracha RBC on a faulty plane"
    ~claim:"Robustness: async plane under link faults"
    ~metrics:
      (( "safety_failures", float_of_int safety_failures )
      :: List.concat_map
           (fun (pname, label, _, _, _, stats) ->
             let k suffix = mkey (Printf.sprintf "%s_%s_%s" pname label suffix) in
             [ (k "completed", float_of_int (trials - stats.Ba_harness.Experiment.incomplete));
               (k "violations", float_of_int (List.length stats.violations));
               (k "steps", Ba_stats.Summary.mean stats.rounds);
               (k "msgs", Ba_stats.Summary.mean stats.messages);
               (k "bits", Ba_stats.Summary.mean stats.bits) ])
           data)
    ~series:(List.map (fun (pname, _, _, _) -> completion_series pname) protocols)
    ~verdict:
      (if control_broken then Report.Fail
       else if safety_failures = 0 then Report.Pass
       else Report.Shape_ok)
    ~summary:
      (Printf.sprintf
         "Benign link faults (drop/duplicate/corrupt) injected into scheduler-visible \
          asynchronous delivery; agreement and validity audited on every trial through the \
          substrate checkers. Termination under faults is reported, not demanded — a starved \
          async protocol may deadlock (incomplete). Fault-free control must be perfect. \
          Measured: control clean=%b, %d safety violations across %d arms x %d trials."
         (not control_broken) safety_failures (List.length data) trials)
    ~body:
      (Ba_harness.Table.render
         ~title:"async protocols under link faults (random scheduler, no Byzantine corruptions)"
         ~headers:[ "protocol"; "size"; "faults"; "completed"; "safety viol."; "steps"; "msgs";
                    "bits" ]
         rows)
    ()

let experiments =
  [ { Ba_harness.Registry.id = "E17";
      title = "asynchronous contrast (Ben-Or vs Algorithm 3)";
      claim = "Async contrast (Sec. 1.3)";
      tags = [ Ba_harness.Registry.Async ];
      run = e17; campaign = None };
    { Ba_harness.Registry.id = "E20";
      title = "async agreement under benign link faults";
      claim = "Robustness: async plane under link faults";
      tags = [ Ba_harness.Registry.Robustness; Ba_harness.Registry.Async ];
      run = e20; campaign = None } ]
