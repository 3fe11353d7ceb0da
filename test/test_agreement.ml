(* Algorithm 3 end-to-end: agreement, validity, termination, early stop,
   the Lemma 3/4 invariants, committee wiring, and the Las Vegas variant. *)

open Ba_experiments

let run_checked ?(pattern = Setups.Split) ~protocol ~adversary ~n ~t ~seed () =
  let run = Setups.make ~protocol ~adversary ~n ~t in
  let inputs = Setups.inputs pattern ~n ~t in
  let o = run.exec ~record:true ~inputs ~seed () in
  let violations = Ba_trace.Checker.standard ?rounds_per_phase:run.rounds_per_phase o in
  (o, violations)

let alg3 = Setups.Alg3 { alpha = 2.0; coin_round = `Piggyback }

let check_clean name (o, violations) =
  Alcotest.(check (list string)) (name ^ ": no violations") []
    (List.map (fun v -> Format.asprintf "%a" Ba_trace.Checker.pp_violation v) violations);
  Alcotest.(check bool) (name ^ ": completed") true o.Ba_sim.Engine.completed

let test_honest_run_converges_fast () =
  let o, v = run_checked ~protocol:alg3 ~adversary:Setups.Silent ~n:40 ~t:13 ~seed:1L () in
  check_clean "silent" (o, v);
  Alcotest.(check bool) "few rounds" true (o.rounds <= 8)

let test_unanimous_inputs_two_phases () =
  List.iter
    (fun b ->
      let o, v =
        run_checked ~pattern:(Setups.Unanimous b) ~protocol:alg3 ~adversary:Setups.Silent ~n:40
          ~t:13 ~seed:2L ()
      in
      check_clean "unanimous" (o, v);
      Alcotest.(check int) "4 rounds (decide + grace phase)" 4 o.rounds;
      List.iter (fun (_, out) -> Alcotest.(check int) "validity value" b out)
        (Ba_sim.Engine.honest_outputs o))
    [ 0; 1 ]

let test_validity_under_every_adversary () =
  List.iter
    (fun adversary ->
      List.iter
        (fun b ->
          let o, v =
            run_checked ~pattern:(Setups.Unanimous b) ~protocol:alg3 ~adversary ~n:40 ~t:13
              ~seed:3L ()
          in
          check_clean "validity" (o, v);
          List.iter
            (fun (_, out) ->
              Alcotest.(check int)
                (Printf.sprintf "adv %s value %d" (Setups.adversary_name adversary) b)
                b out)
            (Ba_sim.Engine.honest_outputs o))
        [ 0; 1 ])
    [ Setups.Silent; Setups.Static_crash; Setups.Staggered_crash 2; Setups.Committee_killer;
      Setups.Equivocator; Setups.Lone_finisher 0; Setups.Random_noise 0.4 ]

let test_agreement_under_every_adversary_many_seeds () =
  List.iter
    (fun adversary ->
      for s = 1 to 10 do
        let o, v =
          run_checked ~protocol:alg3 ~adversary ~n:40 ~t:13 ~seed:(Int64.of_int s) ()
        in
        check_clean (Printf.sprintf "%s seed %d" (Setups.adversary_name adversary) s) (o, v)
      done)
    [ Setups.Silent; Setups.Static_crash; Setups.Staggered_crash 2; Setups.Committee_killer;
      Setups.Equivocator; Setups.Lone_finisher 3; Setups.Random_noise 0.5 ]

let test_near_threshold_inputs () =
  for s = 1 to 10 do
    let o, v =
      run_checked ~pattern:Setups.Near_threshold ~protocol:alg3
        ~adversary:(Setups.Lone_finisher 0) ~n:40 ~t:13 ~seed:(Int64.of_int s) ()
    in
    check_clean "near-threshold lone-finisher" (o, v)
  done

let test_killer_costs_rounds () =
  (* The committee-killer must actually slow the protocol down. *)
  let o_silent, _ = run_checked ~protocol:alg3 ~adversary:Setups.Silent ~n:64 ~t:21 ~seed:5L () in
  let o_killer, v =
    run_checked ~protocol:alg3 ~adversary:Setups.Committee_killer ~n:64 ~t:21 ~seed:5L ()
  in
  check_clean "killer" (o_killer, v);
  Alcotest.(check bool)
    (Printf.sprintf "killer %d > silent %d rounds" o_killer.rounds o_silent.rounds)
    true
    (o_killer.rounds > (2 * o_silent.rounds))

let test_early_termination_scales_with_q () =
  let n = 128 in
  let t = Ba_core.Params.max_tolerated n in
  let inst = Ba_core.Las_vegas.make ~n ~t () in
  let designated ~phase v =
    Ba_core.Committee.is_member inst.committees
      (Ba_core.Committee.for_phase inst.committees ~phase)
      v
  in
  let rounds_at q =
    let adversary =
      Ba_adversary.Generic.capped ~limit:q
        (Ba_adversary.Skeleton_adv.committee_killer ~config:inst.config ~designated)
    in
    let o =
      Ba_sim.Engine.run ~max_rounds:4000 ~protocol:inst.protocol ~adversary ~n ~t
        ~inputs:(Setups.inputs Setups.Split ~n ~t) ~seed:11L ()
    in
    Alcotest.(check bool) "agreement" true (Ba_sim.Engine.agreement_holds o);
    o.rounds
  in
  let r0 = rounds_at 0 and r16 = rounds_at 16 and r42 = rounds_at 42 in
  Alcotest.(check bool) (Printf.sprintf "r0=%d small" r0) true (r0 <= 8);
  Alcotest.(check bool) (Printf.sprintf "%d < %d < %d" r0 r16 r42) true (r0 < r16 && r16 < r42)

let test_committee_wiring () =
  let inst = Ba_core.Agreement.make ~n:64 ~t:21 () in
  let c = Ba_core.Committee.count inst.committees in
  Alcotest.(check int) "phases = committees" c inst.config.Ba_core.Skeleton.cfg_phases;
  (* Exactly one committee flips per phase, and it cycles. *)
  Alcotest.(check int) "phase 1 -> committee 0" 0 (Ba_core.Agreement.committee_of_phase inst ~phase:1);
  Alcotest.(check int) "wraps" 0 (Ba_core.Agreement.committee_of_phase inst ~phase:(c + 1));
  let flippers_of phase =
    List.filter (fun v -> Ba_core.Agreement.is_flipper inst ~phase v) (List.init 64 Fun.id)
  in
  let f1 = flippers_of 1 and f2 = flippers_of 2 in
  Alcotest.(check bool) "non-empty committees" true (f1 <> [] && f2 <> []);
  Alcotest.(check bool) "different committees in different phases" true (f1 <> f2)

let test_make_validation () =
  Alcotest.check_raises "n < 3t+1" (Invalid_argument "Agreement.make: need n >= 3t + 1")
    (fun () -> ignore (Ba_core.Agreement.make ~n:9 ~t:3 ()));
  Alcotest.check_raises "t < 0" (Invalid_argument "Agreement.make: t < 0") (fun () ->
      ignore (Ba_core.Agreement.make ~n:9 ~t:(-1) ()))

let test_t_zero () =
  let o, v = run_checked ~protocol:alg3 ~adversary:Setups.Silent ~n:10 ~t:0 ~seed:13L () in
  check_clean "t=0" (o, v)

let test_minimal_n () =
  (* n = 4, t = 1: smallest non-trivial instance. *)
  for s = 1 to 20 do
    let o, v =
      run_checked ~protocol:alg3 ~adversary:Setups.Committee_killer ~n:4 ~t:1
        ~seed:(Int64.of_int s) ()
    in
    check_clean "n=4 t=1" (o, v)
  done

let test_las_vegas_always_agrees () =
  for s = 1 to 15 do
    let o, v =
      run_checked ~protocol:(Setups.Las_vegas { alpha = 2.0 })
        ~adversary:Setups.Committee_killer ~n:64 ~t:21 ~seed:(Int64.of_int s) ()
    in
    check_clean (Printf.sprintf "las vegas seed %d" s) (o, v)
  done

let test_extra_coin_round_variant () =
  for s = 1 to 8 do
    let o, v =
      run_checked ~protocol:(Setups.Alg3 { alpha = 2.0; coin_round = `Extra })
        ~adversary:Setups.Committee_killer ~n:40 ~t:13 ~seed:(Int64.of_int s) ()
    in
    check_clean (Printf.sprintf "extra-round seed %d" s) (o, v)
  done

let test_alpha_variants () =
  (* Las Vegas form so every alpha terminates cleanly; the fixed-phase
     form legitimately runs out of phases at alpha = 1 against the killer
     (that trade-off is what experiment E11a measures). *)
  List.iter
    (fun alpha ->
      let o, v =
        run_checked ~protocol:(Setups.Las_vegas { alpha })
          ~adversary:Setups.Committee_killer ~n:40 ~t:13 ~seed:17L ()
      in
      check_clean (Printf.sprintf "alpha %.1f" alpha) (o, v))
    [ 1.0; 2.0; 4.0; 8.0 ];
  (* The capped (whp) form at healthy alpha is clean too. *)
  let o, v =
    run_checked ~protocol:(Setups.Alg3 { alpha = 4.0; coin_round = `Piggyback })
      ~adversary:Setups.Committee_killer ~n:40 ~t:13 ~seed:17L ()
  in
  check_clean "alpha 4.0 capped form" (o, v)

let test_lone_finisher_window () =
  (* The lone-finisher run must respect Lemma 4's window: everyone halts
     within 3 phases of the first finisher (checker enforces it); also
     verify the target really finishes first sometimes. *)
  let n = 40 and t = 13 in
  let run = Setups.make ~protocol:alg3 ~adversary:(Setups.Lone_finisher 5) ~n ~t in
  let inputs = Setups.inputs Setups.Near_threshold ~n ~t in
  let o = run.exec ~record:true ~inputs ~seed:21L () in
  Alcotest.(check (list string)) "clean" []
    (List.map (fun v -> Format.asprintf "%a" Ba_trace.Checker.pp_violation v)
       (Ba_trace.Checker.standard ~rounds_per_phase:2 o));
  let finish_round target =
    List.find_map
      (fun (r : Ba_sim.Engine.round_record) ->
        match r.rr_views.(target) with
        | Some { Ba_sim.Protocol.nv_finished = true; _ } -> Some r.rr_round
        | _ -> None)
      o.records
  in
  match finish_round 5 with
  | Some r5 ->
      Alcotest.(check bool) "target finished early" true (r5 <= 4);
      Alcotest.(check bool) "rest within window" true (o.rounds - r5 <= 6)
  | None -> Alcotest.fail "target never finished"

let test_literal_termination_exploitable () =
  (* The paper-literal "broadcast once more" must be demonstrably weaker:
     under the lone-finisher with full budget, at least one of several
     seeds yields a stall or a disagreement, while the extra-phase
     realization stays clean on every one of them. *)
  let n = 40 and t = 13 in
  let inputs = Setups.inputs Setups.Near_threshold ~n ~t in
  let run_with ~termination ~seed =
    let inst = Ba_core.Agreement.make ~termination ~n ~t () in
    let adversary =
      Ba_adversary.Strategy.to_skeleton
        ~rng:(Ba_prng.Rng.create (Int64.mul seed 3L))
        (Ba_adversary.Strategy.lone_finisher_point ~target:0)
        ~config:inst.config
        ~designated:(fun ~phase:_ _ -> false)
    in
    Ba_sim.Engine.run ~max_rounds:(4 * Ba_core.Agreement.round_bound inst)
      ~protocol:inst.protocol ~adversary ~n ~t ~inputs ~seed ()
  in
  let literal_bad = ref 0 in
  for s = 1 to 12 do
    let o = run_with ~termination:`Literal ~seed:(Int64.of_int s) in
    if (not o.completed) || not (Ba_sim.Engine.agreement_holds o) then incr literal_bad;
    let o' = run_with ~termination:`Extra_phase ~seed:(Int64.of_int s) in
    Alcotest.(check bool) "extra-phase clean" true
      (o'.completed && Ba_sim.Engine.agreement_holds o')
  done;
  Alcotest.(check bool)
    (Printf.sprintf "literal reading breaks on %d/12 seeds" !literal_bad)
    true (!literal_bad > 0)

let test_literal_termination_fine_without_attack () =
  (* Without the targeted attack the literal reading behaves identically —
     the corner is real but narrow. *)
  for s = 1 to 6 do
    let inst = Ba_core.Agreement.make ~termination:`Literal ~n:40 ~t:13 () in
    let designated ~phase v = Ba_core.Agreement.is_flipper inst ~phase v in
    let o =
      Ba_sim.Engine.run ~max_rounds:500 ~protocol:inst.protocol
        ~adversary:(Ba_adversary.Skeleton_adv.committee_killer ~config:inst.config ~designated)
        ~n:40 ~t:13
        ~inputs:(Setups.inputs Setups.Split ~n:40 ~t:13)
        ~seed:(Int64.of_int s) ()
    in
    Alcotest.(check bool) "clean" true (o.completed && Ba_sim.Engine.agreement_holds o)
  done

(* Property: random adversaries (random corruption schedule + random
   well-formed messages) never break agreement/validity. *)
let prop_random_adversary_safe =
  QCheck.Test.make ~name:"random noise adversary never breaks invariants" ~count:40
    QCheck.(triple int64 (int_range 0 1) (int_range 0 100))
    (fun (seed, pattern_choice, noise) ->
      let pattern =
        if pattern_choice = 0 then Setups.Split else Setups.Unanimous (noise mod 2)
      in
      let o, violations =
        run_checked ~pattern ~protocol:alg3
          ~adversary:(Setups.Random_noise (float_of_int noise /. 100.))
          ~n:22 ~t:7 ~seed ()
      in
      violations = [] && o.Ba_sim.Engine.completed)

let prop_killer_safe_any_seed =
  QCheck.Test.make ~name:"committee-killer never breaks invariants" ~count:30 QCheck.int64
    (fun seed ->
      let _, violations =
        run_checked ~protocol:(Setups.Las_vegas { alpha = 2.0 })
          ~adversary:Setups.Committee_killer ~n:31 ~t:10 ~seed ()
      in
      violations = [])

let () =
  Alcotest.run "ba_agreement"
    [ ("happy-path",
       [ Alcotest.test_case "silent converges fast" `Quick test_honest_run_converges_fast;
         Alcotest.test_case "unanimous inputs" `Quick test_unanimous_inputs_two_phases;
         Alcotest.test_case "t = 0" `Quick test_t_zero;
         Alcotest.test_case "minimal n" `Quick test_minimal_n ]);
      ("adversarial",
       [ Alcotest.test_case "validity matrix" `Slow test_validity_under_every_adversary;
         Alcotest.test_case "agreement matrix" `Slow test_agreement_under_every_adversary_many_seeds;
         Alcotest.test_case "near-threshold inputs" `Quick test_near_threshold_inputs;
         Alcotest.test_case "killer costs rounds" `Quick test_killer_costs_rounds;
         Alcotest.test_case "lone-finisher window" `Quick test_lone_finisher_window ]);
      ("termination",
       [ Alcotest.test_case "early termination scales with q" `Slow
           test_early_termination_scales_with_q ]);
      ("construction",
       [ Alcotest.test_case "committee wiring" `Quick test_committee_wiring;
         Alcotest.test_case "validation" `Quick test_make_validation;
         Alcotest.test_case "alpha variants" `Quick test_alpha_variants;
         Alcotest.test_case "extra coin round" `Quick test_extra_coin_round_variant ]);
      ("las-vegas",
       [ Alcotest.test_case "always agrees" `Slow test_las_vegas_always_agrees ]);
      ("termination-realization",
       [ Alcotest.test_case "literal reading exploitable" `Quick
           test_literal_termination_exploitable;
         Alcotest.test_case "literal fine without attack" `Quick
           test_literal_termination_fine_without_attack ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_random_adversary_safe;
         QCheck_alcotest.to_alcotest prop_killer_safe_any_seed ]) ]
