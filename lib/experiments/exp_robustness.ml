open Exp_common

module Report = Ba_harness.Report
module Checker = Ba_trace.Checker

(* The fault budget split: a link dropping (or corrupting) a sender's
   messages makes that sender behave like a partially crashed node, so the
   expected number of fault-touched senders per round is charged against
   the protocol's provisioned budget t and the Byzantine adversary keeps
   only the remainder. *)
let e18_budget ~n ~t spec =
  let p = spec.Setups.fs_drop +. spec.Setups.fs_corrupt in
  max 0 (t - int_of_float (ceil (p *. float_of_int n)))

(* E18 — Algorithm 3 (Las Vegas form) vs Chor–Coan under rising link-fault
   rates (drop/duplicate/corrupt), the faults counted against the [t]
   budget. The synchronous model assumes reliable links, so the fault-free
   control arm must stay perfect ([Fail] otherwise); the faulted arms
   quantify agreement/termination breakdown outside the model ([Shape_ok],
   upgrading to [Pass] on a clean sweep). *)
let e18 ~policy ~quick ~seed =
  let n = if quick then 40 else 64 in
  let t = Ba_core.Params.max_tolerated n in
  let trials = if quick then 5 else 12 in
  let arms =
    [ ("p=0.00", { Setups.no_faults with Setups.fs_drop = 0.0 });
      ("p=0.02", { Setups.no_faults with Setups.fs_drop = 0.02 });
      ("p=0.05", { Setups.no_faults with Setups.fs_drop = 0.05 });
      ("p=0.10", { Setups.no_faults with Setups.fs_drop = 0.10 });
      ("p=0.05+dup", { Setups.no_faults with Setups.fs_drop = 0.05; fs_duplicate = 0.05 });
      ("corrupt=0.02", { Setups.no_faults with Setups.fs_corrupt = 0.02 }) ]
  in
  let protocols = [ Setups.Las_vegas { alpha = 2.0 }; Setups.Chor_coan_lv ] in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  let data =
    List.concat_map
      (fun proto ->
        List.map
          (fun (label, spec) ->
            let q = e18_budget ~n ~t spec in
            let run = Setups.make_capped ~faults:spec ~limit:q ~protocol:proto
                ~adversary:Setups.Static_crash ~n ~t
            in
            (* Serial: the run closure adds to [faults_seen], shared across trials. *)
            let faults_seen = Ba_stats.Summary.create () in
            let stats =
              Ba_harness.Experiment.monte_carlo ?rounds_per_phase:run.rounds_per_phase ~policy
                ~fail_fast:false
                ~check:(fun o ->
                  let ro = Ba_sim.Engine.to_run o in
                  Checker.agreement_run ro @ Checker.validity_run ro)
                ~trials
                ~seed:(seed_for ~seed ("e18", run.run_protocol, label))
                ~run:(fun ~seed ~trial:_ ->
                  let o = run.exec ~record:true ~inputs ~seed () in
                  Ba_stats.Summary.add_int faults_seen
                    (Ba_sim.Metrics.fault_events o.Ba_sim.Engine.metrics);
                  o)
                ()
            in
            (run.run_protocol, label, spec, q, faults_seen, stats))
          arms)
      protocols
  in
  let rows =
    List.map
      (fun (proto, label, _, q, faults_seen, stats) ->
        let s = stats.Ba_harness.Experiment.rounds in
        [ proto; label; string_of_int q;
          Printf.sprintf "%d/%d" (trials - stats.incomplete) trials;
          string_of_int (stats.agreement_failures + stats.validity_failures);
          Ba_harness.Table.fmt_mean_ci s; Ba_harness.Table.fmt_mean_ci faults_seen ])
      data
  in
  let safety_failures =
    List.fold_left
      (fun acc (_, _, _, _, _, s) ->
        acc + s.Ba_harness.Experiment.agreement_failures + s.validity_failures)
      0 data
  in
  (* The paper's model assumes reliable links: the fault-free control arm
     must be perfect, while the faulted arms characterize degradation
     outside the model (Shape_ok), with a clean sweep upgrading to Pass. *)
  let control_broken =
    List.exists
      (fun (_, _, spec, _, _, s) ->
        spec = Setups.no_faults
        && (s.Ba_harness.Experiment.agreement_failures > 0 || s.validity_failures > 0
           || s.incomplete > 0))
      data
  in
  let drop_arm label = String.length label >= 2 && String.sub label 0 2 = "p=" in
  let completion_series proto_name =
    { Report.series_name = Printf.sprintf "completion_rate_vs_p_%s" (mkey proto_name);
      points =
        List.filter_map
          (fun (proto, label, spec, _, _, stats) ->
            if proto = proto_name && drop_arm label then
              Some
                ( spec.Setups.fs_drop,
                  float_of_int (trials - stats.Ba_harness.Experiment.incomplete)
                  /. float_of_int trials )
            else None)
          data }
  in
  Report.make ~id:"E18"
    ~title:"Benign link faults counted against t: agreement and termination vs fault rate"
    ~claim:"Robustness: link faults within the t budget"
    ~metrics:
      (( "safety_failures", float_of_int safety_failures )
      :: List.concat_map
           (fun (proto, label, _, q, faults_seen, stats) ->
             let k suffix = mkey (Printf.sprintf "%s_%s_%s" proto label suffix) in
             [ (k "completed", float_of_int (trials - stats.Ba_harness.Experiment.incomplete));
               (k "rounds", Ba_stats.Summary.mean stats.rounds);
               (k "budget_q", float_of_int q);
               (k "fault_events", Ba_stats.Summary.mean faults_seen) ])
           data)
    ~series:(List.map (fun p -> completion_series (Setups.protocol_name p)) protocols)
    ~verdict:
      (if control_broken then Report.Fail
       else if safety_failures = 0 then Report.Pass
       else Report.Shape_ok)
    ~summary:
      (Printf.sprintf
         "Benign drops/duplicates/corruptions injected per link, with the expected number of \
          fault-touched senders charged against t (adversary capped at q = t - ceil(p*n)). \
          The synchronous model assumes reliable links, so the fault-free control arm must be \
          perfect; the faulted arms quantify breakdown outside the model. Measured at n=%d, \
          t=%d: control clean=%b, %d agreement/validity failures across %d arms x %d trials."
         n t (not control_broken) safety_failures (List.length data) trials)
    ~body:
      (Ba_harness.Table.render
         ~title:
           (Printf.sprintf
              "link faults vs agreement/termination (n=%d, t=%d, static-crash capped at q)" n t)
         ~headers:[ "protocol"; "faults"; "q"; "completed"; "safety viol."; "rounds"; "fault events" ]
         rows)
    ()

(* Rotating send-omission waves: the fault-plan placement is a strategy-IR
   silence shape (DESIGN.md §16) lowered by Strategy.to_silences — wave j
   silences g consecutive nodes for rounds [1 + j*w, 1 + (j+1)*w), the
   crash-recovery schedule of DESIGN.md §9. At most g nodes are silent
   in any round, so g is charged against the adversary's budget. *)
let e19_waves ~t ~wave_len ~waves =
  let g = max 1 (t / 4) in
  ( g,
    Ba_adversary.Strategy.to_silences
      { Ba_adversary.Strategy.sw_group = g; sw_len = wave_len; sw_waves = waves; sw_start = 1 } )

(* E19 — crash-recovery gauntlet: rotating send-omission waves (silent for
   rounds [a, b), then resumed) with the full {!Checker.standard} battery —
   including the Lemma 4 termination-gap window — enforced. *)
let e19 ~policy ~quick ~seed =
  let n = if quick then 40 else 64 in
  let t = Ba_core.Params.max_tolerated n in
  let trials = if quick then 6 else 15 in
  let wave_len = 4 and waves = 4 in
  let g, silences = e19_waves ~t ~wave_len ~waves in
  let spec = { Setups.no_faults with Setups.fs_silences = silences } in
  let arms =
    [ ("silence-only", Setups.Silent, t);
      ("silence+crash", Setups.Static_crash, max 0 (t - g)) ]
  in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  let data =
    List.map
      (fun (label, adversary, limit) ->
        let run =
          Setups.make_capped ~faults:spec ~limit ~protocol:(Setups.Las_vegas { alpha = 2.0 })
            ~adversary ~n ~t
        in
        (* Serial: the run closure adds to [silenced], shared across trials. *)
        let silenced = Ba_stats.Summary.create () in
        let stats =
          Ba_harness.Experiment.monte_carlo ?rounds_per_phase:run.rounds_per_phase ~policy
            ~fail_fast:false
            ~check:(fun o ->
              Checker.standard ?rounds_per_phase:run.rounds_per_phase ~allow_faults:true o)
            ~trials
            ~seed:(seed_for ~seed ("e19", label))
            ~run:(fun ~seed ~trial:_ ->
              let o = run.exec ~record:true ~inputs ~seed () in
              Ba_stats.Summary.add_int silenced
                (Ba_sim.Metrics.crash_silences o.Ba_sim.Engine.metrics);
              o)
            ()
        in
        (label, limit, silenced, stats))
      arms
  in
  let total_violations =
    List.fold_left
      (fun acc (_, _, _, s) -> acc + List.length s.Ba_harness.Experiment.violations)
      0 data
  in
  let total_incomplete =
    List.fold_left (fun acc (_, _, _, s) -> acc + s.Ba_harness.Experiment.incomplete) 0 data
  in
  let rows =
    List.map
      (fun (label, limit, silenced, stats) ->
        [ label; string_of_int limit;
          Printf.sprintf "%d/%d" (trials - stats.Ba_harness.Experiment.incomplete) trials;
          string_of_int (List.length stats.violations);
          Ba_harness.Table.fmt_mean_ci stats.rounds; Ba_harness.Table.fmt_mean_ci silenced ])
      data
  in
  Report.make ~id:"E19"
    ~title:"Crash-recovery gauntlet: rotating send-omission waves vs the Lemma 4 window"
    ~claim:"Robustness: crash-recovery (Lemma 4 window)"
    ~metrics:
      (List.concat_map
         (fun (label, limit, silenced, stats) ->
           let k suffix = mkey (Printf.sprintf "%s_%s" label suffix) in
           [ (k "completed", float_of_int (trials - stats.Ba_harness.Experiment.incomplete));
             (k "violations", float_of_int (List.length stats.violations));
             (k "rounds", Ba_stats.Summary.mean stats.rounds);
             (k "budget_q", float_of_int limit);
             (k "silenced_msgs", Ba_stats.Summary.mean silenced) ])
         data)
    ~series:
      [ { Report.series_name = "rounds_by_arm";
          points =
            List.mapi
              (fun i (_, _, _, s) ->
                (float_of_int i, Ba_stats.Summary.mean s.Ba_harness.Experiment.rounds))
              data } ]
    ~verdict:
      (if total_violations = 0 && total_incomplete = 0 then Report.Pass else Report.Fail)
    ~summary:
      (Printf.sprintf
         "Nodes cycle through send-omission windows (%d waves of %d nodes, %d rounds each) and \
          resume; the silenced group is charged against the adversary budget. Measured at n=%d, \
          t=%d: %d invariant violations (incl. the Lemma 4 termination gap), %d incomplete \
          across %d trials per arm."
         waves g wave_len n t total_violations total_incomplete trials)
    ~body:
      (Ba_harness.Table.render
         ~title:
           (Printf.sprintf
              "Algorithm 3 (Las Vegas) under rotating crash-recovery, n=%d, t=%d, g=%d" n t g)
         ~headers:[ "arm"; "q"; "completed"; "violations"; "rounds"; "silenced msgs" ]
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* E18 campaign form (DESIGN.md §14): the p=0.05 drop arm of E18 as a
   sharded Monte-Carlo — Algorithm 3 under benign link drops with the
   adversary capped at the residual budget q = t - ceil(p*n). *)

let e18_c_spec = { Setups.no_faults with Setups.fs_drop = 0.05 }

let e18_c_n ~quick = if quick then 24 else 48

let e18_c_trials ~quick = if quick then 60 else 240

let e18_c_shard_size ~quick = if quick then 10 else 30

let e18_c_run ~policy ~domains ~quick ~seed ~lo ~hi =
  let n = e18_c_n ~quick in
  let t = Ba_core.Params.max_tolerated n in
  let q = e18_budget ~n ~t e18_c_spec in
  let run =
    Setups.make_capped ~faults:e18_c_spec ~limit:q
      ~protocol:(Setups.Las_vegas { alpha = 2.0 })
      ~adversary:Setups.Static_crash ~n ~t
  in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  Ba_harness.Experiment.monte_carlo ~domains ?rounds_per_phase:run.rounds_per_phase ~policy
    ~fail_fast:false
    ~check:(fun o ->
      let ro = Ba_sim.Engine.to_run o in
      Checker.agreement_run ro @ Checker.validity_run ro)
    ~range:(lo, hi) ~trials:(e18_c_trials ~quick) ~seed
    ~run:(fun ~seed ~trial:_ -> run.exec ~record:true ~inputs ~seed ())
    ()

let e18_c_report ~quick ~seed:_ ~trials (stats : Ba_harness.Experiment.stats) =
  let n = e18_c_n ~quick in
  let t = Ba_core.Params.max_tolerated n in
  let q = e18_budget ~n ~t e18_c_spec in
  let ran = trials - List.length stats.failures in
  let safety = stats.agreement_failures + stats.validity_failures in
  Report.make ~id:"E18"
    ~title:"Benign link faults counted against t: p=0.05 drop arm (campaign)"
    ~claim:"Robustness: link faults within the t budget"
    ~metrics:
      [ ("n", float_of_int n); ("t", float_of_int t); ("budget_q", float_of_int q);
        ("drop_p", e18_c_spec.Setups.fs_drop);
        ("completed", float_of_int (ran - stats.incomplete));
        ("safety_failures", float_of_int safety);
        ("rounds_mean", Ba_stats.Summary.mean stats.rounds) ]
    ~trials ~failures:stats.failures
    ~verdict:(if safety = 0 then Report.Pass else Report.Shape_ok)
    ~summary:
      (Printf.sprintf
         "Benign drops at p=%.2f per link with the adversary capped at q = t - ceil(p*n) = \
          %d. The faulted arm is outside the paper's reliable-link model, so safety \
          failures degrade to shape_ok rather than fail. Measured at n=%d over %d trials: \
          %d completed, %d agreement/validity failures, %.1f mean rounds."
         e18_c_spec.Setups.fs_drop q n trials (ran - stats.incomplete) safety
         (Ba_stats.Summary.mean stats.rounds))
    ~body:
      (Ba_harness.Table.render
         ~title:(Printf.sprintf "E18 campaign arm: p=0.05 drop, n=%d, t=%d, q=%d" n t q)
         ~headers:[ "trials"; "completed"; "safety failures"; "rounds" ]
         [ [ string_of_int trials;
             string_of_int (ran - stats.incomplete);
             string_of_int safety;
             Ba_harness.Table.fmt_mean_ci stats.rounds ] ])
    ()

let e18_campaign =
  { Ba_harness.Registry.c_trials = e18_c_trials;
    c_shard_size = e18_c_shard_size;
    c_run = e18_c_run;
    c_report = e18_c_report }

let experiments =
  [ { Ba_harness.Registry.id = "E18";
      title = "link faults counted against t";
      claim = "Robustness: link faults within the t budget";
      tags = [ Ba_harness.Registry.Robustness ];
      run = (fun ~policy ~domains:_ ~quick ~seed -> e18 ~policy ~quick ~seed);
      campaign = Some e18_campaign };
    { Ba_harness.Registry.id = "E19";
      title = "crash-recovery gauntlet (Lemma 4 window)";
      claim = "Robustness: crash-recovery (Lemma 4 window)";
      tags = [ Ba_harness.Registry.Robustness ];
      run = (fun ~policy ~domains:_ ~quick ~seed -> e19 ~policy ~quick ~seed); campaign = None } ]
