open Exp_common

module Report = Ba_harness.Report

(* E11a — alpha ablation: the committee-count constant vs rounds and vs the
   failure rate of the fixed-phase (whp) variant. Reported as part of E11. *)
let e11_alpha ~quick ~seed =
  let n = if quick then 64 else 128 in
  let t = Ba_core.Params.max_tolerated n in
  let trials = if quick then 12 else 40 in
  let alphas = [ 1.0; 2.0; 4.0; 8.0 ] in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  let data =
    List.map
      (fun alpha ->
        (* Fixed-phase (whp) variant: count cap-hits = agreement failures. *)
        let inst = Ba_core.Agreement.make ~alpha ~n ~t () in
        let designated ~phase v = Ba_core.Agreement.is_flipper inst ~phase v in
        let rounds = Ba_stats.Summary.create () in
        let failures = ref 0 in
        for trial = 0 to trials - 1 do
          let s =
            Ba_harness.Experiment.trial_seed ~seed:(seed_for ~seed ("e11a", alpha)) ~trial
          in
          let adv =
            Ba_adversary.Skeleton_adv.committee_killer ~config:inst.config ~designated
          in
          let o =
            Ba_sim.Engine.run
              ~max_rounds:(Ba_core.Agreement.round_bound inst)
              ~protocol:inst.protocol ~adversary:adv ~n ~t ~inputs ~seed:s ()
          in
          Ba_stats.Summary.add_int rounds o.rounds;
          if (not (Ba_sim.Engine.agreement_holds o)) || not o.completed then incr failures
        done;
        let c = Ba_core.Params.committees ~alpha ~n ~t () in
        (alpha, c, Ba_core.Params.committee_size ~n ~c, rounds, !failures))
      alphas
  in
  let rows =
    List.map
      (fun (alpha, c, size, rounds, failures) ->
        [ Printf.sprintf "%.1f" alpha; string_of_int c; string_of_int size;
          Ba_harness.Table.fmt_mean_ci rounds;
          Printf.sprintf "%d/%d" failures trials ])
      data
  in
  let fail_str =
    String.concat ", "
      (List.map (fun (a, _, _, _, f) -> Printf.sprintf "alpha=%.0f: %d/%d" a f trials) data)
  in
  Report.make ~id:"E11a"
    ~title:"Ablation: committee-count constant alpha"
    ~claim:"Ablation: alpha"
    ~metrics:
      (List.concat_map
         (fun (alpha, _, _, rounds, failures) ->
           [ (Printf.sprintf "rounds_alpha%.0f" alpha, Ba_stats.Summary.mean rounds);
             (Printf.sprintf "failures_alpha%.0f" alpha, float_of_int failures) ])
         data)
    ~verdict:Report.Shape_ok
    ~summary:
      (Printf.sprintf
         "Paper: alpha trades phase budget (rounds) against failure probability (the whp \
          argument wants alpha - 4 sqrt(alpha) >= gamma, i.e. alpha >= ~23 — far above what \
          is needed in practice). Measured phase-cap failures at t = n/3 - 1: %s. The Las \
          Vegas form sidesteps the cap entirely."
         fail_str)
    ~body:
      (Ba_harness.Table.render
         ~title:(Printf.sprintf "fixed-phase Algorithm 3, n=%d, t=%d, committee-killer" n t)
         ~headers:[ "alpha"; "committees c"; "size s"; "rounds"; "failures" ]
         rows)
    ()

(* E11b — coin piggybacking vs a separate coin round. Reported as part of
   E11. *)
let e11_coin_round ~policy ~domains ~quick ~seed =
  let n = if quick then 40 else 64 in
  let t = Ba_core.Params.max_tolerated n in
  let trials = if quick then 8 else 20 in
  let data =
    List.map
      (fun coin_round ->
        let run =
          Setups.make ~protocol:(Setups.Alg3 { alpha = 2.0; coin_round })
            ~adversary:Setups.Committee_killer ~n ~t
        in
        let inputs = Setups.inputs Setups.Split ~n ~t in
        let stats =
          Ba_harness.Experiment.monte_carlo ~domains ?rounds_per_phase:run.rounds_per_phase
            ~policy ~fail_fast:false ~trials
            ~seed:(seed_for ~seed ("e11b", run.run_protocol))
            ~run:(fun ~seed ~trial:_ -> run.exec ~record:true ~inputs ~seed ())
            ()
        in
        (coin_round, run, stats))
      [ `Piggyback; `Extra ]
  in
  let rows =
    List.map
      (fun (_, run, stats) ->
        [ run.Setups.run_protocol;
          (match run.rounds_per_phase with Some r -> string_of_int r | None -> "-");
          Ba_harness.Table.fmt_mean_ci stats.Ba_harness.Experiment.rounds;
          Ba_harness.Table.fmt_mean_ci stats.phases;
          string_of_int stats.agreement_failures ])
      data
  in
  let mean_rounds which =
    List.find_map
      (fun (cr, _, stats) ->
        if cr = which then Some (Ba_stats.Summary.mean stats.Ba_harness.Experiment.rounds)
        else None)
      data
  in
  let ratio =
    match (mean_rounds `Piggyback, mean_rounds `Extra) with
    | Some p, Some e when p > 0. -> e /. p
    | _ -> nan
  in
  Report.make ~id:"E11b"
    ~title:"Ablation: coin piggybacked on round 2 vs separate coin round"
    ~claim:"Ablation: coin-round placement"
    ~metrics:
      (List.concat_map
         (fun (cr, _, stats) ->
           let name = match cr with `Piggyback -> "piggyback" | `Extra -> "extra" in
           [ (Printf.sprintf "rounds_%s" name, Ba_stats.Summary.mean stats.Ba_harness.Experiment.rounds);
             (Printf.sprintf "phases_%s" name, Ba_stats.Summary.mean stats.phases);
             (Printf.sprintf "agreement_failures_%s" name,
              float_of_int stats.agreement_failures) ])
         data
      @ [ ("extra_over_piggyback_rounds", ratio) ])
    ~verdict:(if Float.is_finite ratio && ratio > 1.0 then Report.Pass else Report.Shape_ok)
    ~summary:
      "The paper's 2-rounds-per-phase accounting needs the coin flips piggybacked on the \
       round-2 broadcast. Measured: the 3-round variant needs the same number of phases but \
       ~1.5x the rounds — piggybacking is a constant-factor win, not a correctness issue."
    ~body:
      (Ba_harness.Table.render ~title:"Algorithm 3 coin-round placement"
         ~headers:[ "variant"; "rounds/phase"; "rounds"; "phases"; "agreement failures" ]
         rows)
    ()

(* E11 — both design-choice ablations as one registered experiment
   (DESIGN.md §5 row E11): metrics prefixed [alpha_]/[coin_], verdict the
   worst of the two. *)
let e11 ~policy ~domains ~quick ~seed =
  let a = e11_alpha ~quick ~seed in
  let b = e11_coin_round ~policy ~domains ~quick ~seed in
  let prefix p metrics = List.map (fun (k, v) -> (p ^ "_" ^ k, v)) metrics in
  Report.make ~id:"E11"
    ~title:"Ablations: committee-count constant alpha; coin piggyback vs extra round"
    ~claim:"Ablations (design choices)"
    ~metrics:(prefix "alpha" a.Report.metrics @ prefix "coin" b.Report.metrics)
    ~series:(a.series @ b.series)
    ~verdict:(Report.worst a.verdict b.verdict)
    ~summary:(a.summary ^ " / " ^ b.summary)
    ~body:(a.body ^ "\n" ^ b.body)
    ()

(* E14 — fault-model ladder: the crash-only (Bar-Joseph–Ben-Or model)
   committee killer vs the full Byzantine one. The BJB lower bound already
   holds for adaptive crash faults; measure how much weaker the crash-only
   killer is in practice (deletions cost ~|X|+1 per coin vs the Byzantine
   ~|X|/2+1). *)
let e14 ~policy ~domains ~quick ~seed =
  let n = if quick then 64 else 128 in
  let t = Ba_core.Params.max_tolerated n in
  let trials = if quick then 8 else 20 in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  let measure adversary =
    let run = Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 }) ~adversary ~n ~t in
    Ba_harness.Experiment.monte_carlo ~domains ?rounds_per_phase:run.rounds_per_phase ~policy
      ~trials
      ~seed:(seed_for ~seed ("e14", Setups.adversary_name adversary))
      ~run:(fun ~seed ~trial:_ -> run.exec ~record:true ~inputs ~seed ())
      ()
  in
  let byz = measure Setups.Committee_killer in
  let crash = measure Setups.Crash_committee_killer in
  let silent = measure Setups.Silent in
  let rows =
    List.map
      (fun (name, stats) ->
        [ name;
          Ba_harness.Table.fmt_mean_ci stats.Ba_harness.Experiment.rounds;
          Ba_harness.Table.fmt_mean_ci stats.corruptions;
          Ba_harness.Table.fmt_ratio
            (Ba_stats.Summary.mean stats.rounds)
            (Ba_stats.Summary.mean silent.Ba_harness.Experiment.rounds) ])
      [ ("silent", silent); ("crash-committee-killer", crash); ("committee-killer", byz) ]
  in
  let slowdown =
    Ba_stats.Summary.mean byz.Ba_harness.Experiment.rounds
    /. Ba_stats.Summary.mean crash.Ba_harness.Experiment.rounds
  in
  Report.make ~id:"E14"
    ~title:"Fault-model ladder: crash faults vs full Byzantine behaviour"
    ~claim:"Fault-model ladder (BJB model)"
    ~metrics:
      [ ("rounds_silent", Ba_stats.Summary.mean silent.Ba_harness.Experiment.rounds);
        ("rounds_crash_killer", Ba_stats.Summary.mean crash.Ba_harness.Experiment.rounds);
        ("rounds_byzantine_killer", Ba_stats.Summary.mean byz.Ba_harness.Experiment.rounds);
        ("byzantine_over_crash", slowdown) ]
    ~verdict:(if Float.is_finite slowdown && slowdown >= 1.0 then Report.Pass else Report.Shape_ok)
    ~summary:
      (Printf.sprintf
         "BJB's lower bound already holds for adaptive mid-round crash faults; Byzantine \
          equivocation roughly halves the per-coin kill cost. Measured at n=%d, t=%d: the \
          Byzantine killer sustains %.1fx more rounds than the crash-only killer."
         n t slowdown)
    ~body:
      (Ba_harness.Table.render
         ~title:(Printf.sprintf "Algorithm 3 (Las Vegas), n=%d, t=%d" n t)
         ~headers:[ "adversary"; "rounds"; "corruptions used"; "vs silent" ]
         rows)
    ()

(* E15 — termination-realization ablation (DESIGN.md §4.2): the paper's
   "broadcast once more" taken literally vs the extra-phase realization,
   both under the lone-finisher attack with a full budget. The literal
   reading strands the remaining honest nodes below every threshold: the
   Las Vegas run never terminates (cap hit) and the fixed-phase run risks
   disagreement at the cap; the extra-phase realization terminates. *)
let e15 ~quick ~seed =
  let n = if quick then 40 else 64 in
  let t = Ba_core.Params.max_tolerated n in
  let trials = if quick then 10 else 25 in
  let inputs = Setups.inputs Setups.Near_threshold ~n ~t in
  let run_one ~termination ~seed =
    let inst = Ba_core.Agreement.make ~termination ~n ~t () in
    let adversary =
      Ba_adversary.Strategy.to_skeleton ~name:"lone-finisher-0"
        ~rng:(Ba_prng.Rng.create (Ba_prng.Splitmix64.mix seed))
        (Ba_adversary.Strategy.lone_finisher_point ~target:0)
        ~config:inst.config
        ~designated:(fun ~phase:_ _ -> false)
    in
    Ba_sim.Engine.run ~record:true
      ~max_rounds:(4 * Ba_core.Agreement.round_bound inst)
      ~protocol:inst.protocol ~adversary ~n ~t ~inputs ~seed ()
  in
  let data =
    List.map
      (fun (label, key, termination) ->
        let stalls = ref 0 and disagreements = ref 0 and clean = ref 0 in
        let rounds = Ba_stats.Summary.create () in
        for trial = 0 to trials - 1 do
          let s = Ba_harness.Experiment.trial_seed ~seed:(seed_for ~seed ("e15", label)) ~trial in
          let o = run_one ~termination ~seed:s in
          Ba_stats.Summary.add_int rounds o.Ba_sim.Engine.rounds;
          if not o.completed then incr stalls
          else if not (Ba_sim.Engine.agreement_holds o) then incr disagreements
          else incr clean
        done;
        (label, key, rounds, !clean, !stalls, !disagreements))
      [ ("literal (paper text)", "literal", `Literal);
        ("extra-phase (ours)", "extra_phase", `Extra_phase) ]
  in
  let rows =
    List.map
      (fun (label, _, rounds, clean, stalls, disagreements) ->
        [ label; Ba_harness.Table.fmt_mean_ci rounds;
          Printf.sprintf "%d/%d" clean trials;
          Printf.sprintf "%d/%d" stalls trials;
          Printf.sprintf "%d/%d" disagreements trials ])
      data
  in
  let extra_clean =
    List.find_map
      (fun (_, key, _, clean, _, _) -> if key = "extra_phase" then Some clean else None)
      data
  in
  Report.make ~id:"E15"
    ~title:"Termination ablation: paper-literal \"broadcast once more\" vs extra phase"
    ~claim:"Termination realization (DESIGN.md 4.2)"
    ~metrics:
      (List.concat_map
         (fun (_, key, rounds, clean, stalls, disagreements) ->
           [ (Printf.sprintf "%s_clean" key, float_of_int clean);
             (Printf.sprintf "%s_stalls" key, float_of_int stalls);
             (Printf.sprintf "%s_disagreements" key, float_of_int disagreements);
             (Printf.sprintf "%s_rounds" key, Ba_stats.Summary.mean rounds) ])
         data
      @ [ ("trials", float_of_int trials) ])
    ~verdict:(if extra_clean = Some trials then Report.Pass else Report.Fail)
    ~summary:
      "Reading Algorithm 3's lines 8-10 literally, a budget-exhausting lone-finisher attack \
       strands the remaining honest nodes below the n-t threshold forever (stalls, and \
       disagreements at the phase cap); the extra-phase realization used throughout this \
       library terminates cleanly in the same runs — the concrete justification for the \
       interpretation documented in DESIGN.md section 4.2."
    ~body:
      (Ba_harness.Table.render
         ~title:
           (Printf.sprintf
              "lone-finisher with full budget, near-threshold inputs, n=%d, t=%d" n t)
         ~headers:[ "termination"; "rounds"; "clean"; "stalled"; "disagreed" ]
         rows)
    ()

let experiments =
  [ { Ba_harness.Registry.id = "E11";
      title = "ablations: alpha and coin-round placement";
      claim = "Ablations (design choices)";
      tags = [ Ba_harness.Registry.Ablation ];
      run = e11; campaign = None };
    { Ba_harness.Registry.id = "E14";
      title = "crash vs byzantine fault models";
      claim = "Fault-model ladder (BJB model)";
      tags = [ Ba_harness.Registry.Ablation; Ba_harness.Registry.Robustness ];
      run = e14; campaign = None };
    { Ba_harness.Registry.id = "E15";
      title = "termination-realization ablation";
      claim = "Termination realization (DESIGN.md 4.2)";
      tags = [ Ba_harness.Registry.Ablation; Ba_harness.Registry.Robustness ];
      run = (fun ~policy:_ ~domains:_ ~quick ~seed -> e15 ~quick ~seed); campaign = None } ]
