(* Trial fan-out in Experiment.monte_carlo: equivalence with the serial
   loop regardless of domain count (per-trial seeds are identical),
   violation aggregation, abort and join semantics. *)

open Ba_experiments

let runner () =
  let n = 22 and t = 7 in
  let run =
    Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 }) ~adversary:Setups.Committee_killer
      ~n ~t
  in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  fun ~seed ~trial:_ -> run.exec ~record:true ~inputs ~seed ()

let test_equivalent_to_serial () =
  let run = runner () in
  let serial =
    Ba_harness.Experiment.monte_carlo ~rounds_per_phase:2 ~trials:20 ~seed:5L ~run ()
  in
  List.iter
    (fun domains ->
      let par =
        Ba_harness.Experiment.monte_carlo ~domains ~rounds_per_phase:2 ~trials:20 ~seed:5L ~run ()
      in
      Alcotest.(check int) "trial count" 20 (Ba_stats.Summary.count par.rounds);
      Alcotest.(check (float 1e-9)) (Printf.sprintf "mean rounds (domains=%d)" domains)
        (Ba_stats.Summary.mean serial.rounds)
        (Ba_stats.Summary.mean par.rounds);
      Alcotest.(check (float 1e-9)) "total messages"
        (Ba_stats.Summary.total serial.messages)
        (Ba_stats.Summary.total par.messages);
      Alcotest.(check int) "agreement failures" serial.agreement_failures
        par.agreement_failures)
    [ 1; 2; 3; 7 ]

let test_more_domains_than_trials () =
  let run = runner () in
  let par = Ba_harness.Experiment.monte_carlo ~domains:16 ~trials:3 ~seed:1L ~run () in
  Alcotest.(check int) "all trials done" 3 (Ba_stats.Summary.count par.rounds)

let test_fail_fast_reports_lowest_trial () =
  let run = runner () in
  let bogus o =
    (* Fire only on trials whose round count is even — arbitrary but
       deterministic; the reported trial must be the lowest firing one. *)
    if o.Ba_sim.Engine.rounds mod 2 = 0 then
      [ { Ba_trace.Checker.check = "bogus"; detail = "even rounds" } ]
    else []
  in
  let serial_first =
    let found = ref None in
    (try
       ignore
         (Ba_harness.Experiment.monte_carlo ~check:bogus ~trials:10 ~seed:5L ~run ())
     with Failure msg -> found := Some msg);
    !found
  in
  let parallel_first =
    let found = ref None in
    (try
       ignore
         (Ba_harness.Experiment.monte_carlo ~domains:3 ~check:bogus ~trials:10 ~seed:5L ~run ())
     with Failure msg -> found := Some msg);
    !found
  in
  match (serial_first, parallel_first) with
  | Some s, Some p -> Alcotest.(check string) "same first failure" s p
  | _ -> Alcotest.fail "expected failures in both runners"

let test_no_fail_fast_collects () =
  let run = runner () in
  let bogus _ = [ { Ba_trace.Checker.check = "bogus"; detail = "always" } ] in
  let par =
    Ba_harness.Experiment.monte_carlo ~domains:4 ~check:bogus ~fail_fast:false ~trials:8 ~seed:2L
      ~run ()
  in
  Alcotest.(check int) "all violations kept" 8 (List.length par.violations)

let test_raising_check_joins_domains () =
  (* A check closure that raises on the main domain's chunk must propagate
     (not deadlock or leak): the join is under Fun.protect. Exercised for
     both an arbitrary exception and a second run afterwards to show the
     runner is still usable. *)
  let run = runner () in
  let boom _ = raise Exit in
  List.iter
    (fun domains ->
      match
        Ba_harness.Experiment.monte_carlo ~domains ~check:boom ~trials:6 ~seed:3L ~run ()
      with
      | exception Exit -> ()
      | _ -> Alcotest.fail "raising check swallowed")
    [ 1; 2; 4 ];
  let again = Ba_harness.Experiment.monte_carlo ~domains:4 ~trials:6 ~seed:3L ~run () in
  Alcotest.(check int) "runner still functional" 6 (Ba_stats.Summary.count again.rounds)

let test_fail_fast_message_domain_independent () =
  (* Chunks are joined in trial order, so the cited trial must not depend
     on how trials were split across domains. *)
  let run = runner () in
  let bogus o =
    if o.Ba_sim.Engine.rounds mod 2 = 0 then
      [ { Ba_trace.Checker.check = "bogus"; detail = "even rounds" } ]
    else []
  in
  let first domains =
    try
      ignore
        (Ba_harness.Experiment.monte_carlo ~domains ~check:bogus ~trials:10 ~seed:5L ~run ());
      Alcotest.fail "expected a failure"
    with Failure msg -> msg
  in
  Alcotest.(check string) "two chunks agree with one" (first 1) (first 2)

let test_keep_going_in_parallel () =
  let run = runner () in
  let poisoned ~seed ~trial = if trial = 5 then failwith "poisoned" else run ~seed ~trial in
  let par =
    Ba_harness.Experiment.monte_carlo ~domains:4
      ~policy:(Ba_harness.Supervisor.supervised ())
      ~trials:12 ~seed:2L ~run:poisoned ()
  in
  Alcotest.(check int) "11 clean trials" 11 (Ba_stats.Summary.count par.rounds);
  Alcotest.(check (list int)) "failure isolated to trial 5" [ 5 ]
    (List.map (fun f -> f.Ba_harness.Supervisor.f_trial) par.failures)

let test_rejects_nonpositive_domains () =
  let run = runner () in
  List.iter
    (fun domains ->
      match Ba_harness.Experiment.monte_carlo ~domains ~trials:2 ~seed:1L ~run () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "domains=%d accepted" domains))
    [ 0; -1 ]

let test_violations_contract () =
  (* Two violations per trial, tagged with the trial index, over more
     trials than the cap holds: every domain count keeps the first
     [cap] entries in trial order. *)
  let base = runner () in
  let run ~seed ~trial =
    { (base ~seed ~trial) with Ba_sim.Engine.protocol_name = string_of_int trial }
  in
  let tagged (o : Ba_sim.Engine.outcome) =
    List.map
      (fun part -> { Ba_trace.Checker.check = "tagged"; detail = o.protocol_name ^ part })
      [ "a"; "b" ]
  in
  let details domains =
    let st =
      Ba_harness.Experiment.monte_carlo ~domains ~check:tagged ~fail_fast:false ~trials:20
        ~seed:6L ~run ()
    in
    List.map (fun v -> v.Ba_trace.Checker.detail) st.violations
  in
  let expected =
    List.concat (List.init 16 (fun i -> [ string_of_int i ^ "a"; string_of_int i ^ "b" ]))
  in
  List.iter
    (fun domains ->
      Alcotest.(check (list string))
        (Printf.sprintf "first 32 in trial order (domains=%d)" domains)
        expected (details domains))
    [ 1; 3 ]

let () =
  Alcotest.run "ba_parallel"
    [ ("parallel",
       [ Alcotest.test_case "equivalent to serial" `Slow test_equivalent_to_serial;
         Alcotest.test_case "more domains than trials" `Quick test_more_domains_than_trials;
         Alcotest.test_case "fail fast lowest trial" `Quick test_fail_fast_reports_lowest_trial;
         Alcotest.test_case "collects without fail fast" `Quick test_no_fail_fast_collects;
         Alcotest.test_case "raising check joins domains" `Quick
           test_raising_check_joins_domains;
         Alcotest.test_case "fail-fast message domain-independent" `Quick
           test_fail_fast_message_domain_independent;
         Alcotest.test_case "keep-going in parallel" `Quick test_keep_going_in_parallel;
         Alcotest.test_case "rejects nonpositive domains" `Quick
           test_rejects_nonpositive_domains ]);
      ("fan-out contract",
       [ Alcotest.test_case "violations: first 32 in trial order" `Quick
           test_violations_contract ]) ]
