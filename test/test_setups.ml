(* Setups registry: parsing, wiring, input patterns, compatibility rules. *)

open Ba_experiments

let test_parse_roundtrip () =
  List.iter
    (fun name ->
      match Setups.parse_protocol name with
      | Ok p -> Alcotest.(check string) "name roundtrip" name (Setups.protocol_name p)
      | Error e -> Alcotest.fail e)
    Setups.all_protocol_names

let test_parse_unknown () =
  (match Setups.parse_protocol "nope" with
  | Error msg -> Alcotest.(check bool) "mentions candidates" true (String.length msg > 20)
  | Ok _ -> Alcotest.fail "expected error");
  match Setups.parse_adversary "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_parse_adversaries () =
  List.iter
    (fun name ->
      match Setups.parse_adversary name with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    Setups.all_adversary_names

let test_inputs_patterns () =
  let n = 40 and t = 13 in
  Alcotest.(check (array int)) "unanimous 1" (Array.make 5 1)
    (Setups.inputs (Setups.Unanimous 1) ~n:5 ~t:1);
  let split = Setups.inputs Setups.Split ~n ~t in
  let ones = Array.fold_left ( + ) 0 split in
  Alcotest.(check int) "balanced" 20 ones;
  let near = Setups.inputs Setups.Near_threshold ~n ~t in
  let ones = Array.fold_left ( + ) 0 near in
  Alcotest.(check bool)
    (Printf.sprintf "near-threshold %d in (n-2t, n-t)" ones)
    true
    (ones >= n - (2 * t) && ones < n - t)

let test_inputs_validation () =
  Alcotest.check_raises "bad unanimous"
    (Invalid_argument "Setups.inputs: unanimous value must be 0/1") (fun () ->
      ignore (Setups.inputs (Setups.Unanimous 2) ~n:4 ~t:1))

let test_incompatible_pairs_rejected () =
  Alcotest.(check bool) "phase-king x killer rejected" true
    (match Setups.make ~protocol:Setups.Phase_king ~adversary:Setups.Committee_killer ~n:41 ~t:9 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "eig size guard" true
    (match Setups.make ~protocol:Setups.Eig ~adversary:Setups.Silent ~n:50 ~t:16 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_run_names () =
  let run =
    Setups.make ~protocol:(Setups.Alg3 { alpha = 2.0; coin_round = `Piggyback })
      ~adversary:Setups.Committee_killer ~n:13 ~t:4
  in
  Alcotest.(check string) "protocol name" "algorithm3" run.run_protocol;
  Alcotest.(check string) "adversary name" "committee-killer" run.run_adversary;
  Alcotest.(check (option int)) "rounds per phase" (Some 2) run.rounds_per_phase

let test_exec_deterministic () =
  let run =
    Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 })
      ~adversary:Setups.Committee_killer ~n:22 ~t:7
  in
  let inputs = Setups.inputs Setups.Split ~n:22 ~t:7 in
  let o1 = run.exec ~record:false ~inputs ~seed:5L () in
  let o2 = run.exec ~record:false ~inputs ~seed:5L () in
  Alcotest.(check int) "same rounds" o1.Ba_sim.Engine.rounds o2.Ba_sim.Engine.rounds;
  Alcotest.(check (array (option int))) "same outputs" o1.outputs o2.outputs

let test_rabin_dealer_varies_with_seed () =
  (* Different run seeds must produce different dealer streams (else the
     adversary could predict the dealer across trials). *)
  let run = Setups.make ~protocol:Setups.Rabin ~adversary:Setups.Silent ~n:22 ~t:7 in
  let inputs = Setups.inputs Setups.Split ~n:22 ~t:7 in
  let outs =
    List.init 12 (fun i ->
        let o = run.exec ~record:false ~inputs ~seed:(Int64.of_int (i * 97)) () in
        match Ba_sim.Engine.honest_outputs o with (_, b) :: _ -> b | [] -> -1)
  in
  Alcotest.(check bool) "both coin values appear across seeds" true
    (List.mem 0 outs && List.mem 1 outs)

let test_all_skeleton_pairs_construct () =
  let protocols =
    [ Setups.Alg3 { alpha = 2.0; coin_round = `Piggyback };
      Setups.Alg3 { alpha = 2.0; coin_round = `Extra };
      Setups.Las_vegas { alpha = 2.0 }; Setups.Chor_coan; Setups.Chor_coan_lv; Setups.Rabin;
      Setups.Local_coin ]
  in
  let adversaries =
    [ Setups.Silent; Setups.Static_crash; Setups.Staggered_crash 1; Setups.Committee_killer;
      Setups.Equivocator; Setups.Lone_finisher 0; Setups.Random_noise 0.2 ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun a -> ignore (Setups.make ~protocol:p ~adversary:a ~n:22 ~t:7))
        adversaries)
    protocols

(* --- Known answers: named kinds pinned run by run ---

   Each row is [(adversary_name, span, completed, outputs, corruptions_used,
   messages, bits)] of one exec, three seeds per setup. The values were
   recorded with each named kind wired to its own constructor; the rows
   catch any drift in how Setups maps a kind to a strategy genome, lowers
   it, seeds it or names it. *)

let fingerprint (o : Ba_sim.Run.outcome) =
  let outputs =
    String.concat ""
      (Array.to_list
         (Array.map (function None -> "-" | Some b -> string_of_int b) o.outputs))
  in
  Printf.sprintf "%s %s=%d %b %s %d %d %d" o.adversary_name
    (Ba_sim.Run.span_label o.span) (Ba_sim.Run.span_units o.span) o.completed outputs
    o.corruptions_used (Ba_sim.Metrics.messages o.metrics) (Ba_sim.Metrics.bits o.metrics)

let kat_seeds = [ 2026L; 2027L; 2028L ]

let sync_rows (run : Setups.run) ~inputs =
  List.map
    (fun seed -> fingerprint (Ba_sim.Engine.to_run (run.exec ~record:false ~inputs ~seed ())))
    kat_seeds

let async_rows (run : Setups.async_run) ~inputs =
  List.map (fun seed -> fingerprint (run.arun_exec ~inputs ~seed ())) kat_seeds

let kat_table () =
  let parsed_adversaries =
    List.map
      (fun name -> match Setups.parse_adversary name with Ok a -> a | Error e -> failwith e)
      Setups.all_adversary_names
  in
  let sync ~protocol ~n ~t adversaries =
    let inputs = Setups.inputs Setups.Split ~n ~t in
    List.map
      (fun adversary ->
        ( Printf.sprintf "%s vs %s" (Setups.protocol_name protocol)
            (Setups.adversary_name adversary),
          sync_rows (Setups.make ~protocol ~adversary ~n ~t) ~inputs ))
      adversaries
  in
  let crash_kinds = [ Setups.Silent; Setups.Static_crash; Setups.Staggered_crash 1 ] in
  let capped =
    let n = 40 and t = 13 in
    let faults = { Setups.no_faults with fs_drop = 0.05; fs_duplicate = 0.05 } in
    ( "capped static-crash with drop and duplicate faults",
      sync_rows
        (Setups.make_capped ~faults ~limit:11 ~protocol:(Setups.Las_vegas { alpha = 2.0 })
           ~adversary:Setups.Static_crash ~n ~t)
        ~inputs:(Setups.inputs Setups.Split ~n ~t) )
  in
  let async ~protocol ~n ~t ~inputs schedulers =
    List.map
      (fun name ->
        let scheduler =
          match Setups.parse_async_scheduler name with Ok s -> s | Error e -> failwith e
        in
        ( Printf.sprintf "async %s vs %s" name
            (match protocol with Setups.Async_ben_or -> "ben-or" | Setups.Async_bracha _ -> "rbc"),
          async_rows (Setups.make_async ~protocol ~scheduler ~n ~t ()) ~inputs ))
      schedulers
  in
  let rbc_inputs = Array.init 16 (fun v -> if v = 0 then 1 else 0) in
  sync ~protocol:(Setups.Las_vegas { alpha = 2.0 }) ~n:16 ~t:5 parsed_adversaries
  @ sync ~protocol:Setups.Phase_king ~n:16 ~t:3 crash_kinds
  @ sync ~protocol:(Setups.Ks_sample { degree = 0 }) ~n:16 ~t:3 crash_kinds
  @ [ capped ]
  @ async ~protocol:Setups.Async_ben_or ~n:16 ~t:3
      ~inputs:(Setups.inputs Setups.Near_threshold ~n:16 ~t:3)
      Setups.all_async_scheduler_names
  @ async ~protocol:(Setups.Async_bracha { broadcaster = 0 }) ~n:16 ~t:5 ~inputs:rbc_inputs
      [ "fifo"; "random"; "delayer" ]

let kat_expected : (string * string list) list =
  [ ("las-vegas vs silent",
     [ "silent rounds=6 true 1111111111111111 0 1440 8340";
       "silent rounds=6 true 1111111111111111 0 1440 8340";
       "silent rounds=6 true 1111111111111111 0 1440 8340" ]);
    ("las-vegas vs static-crash",
     [ "static-crash rounds=6 true 1-1-11111111---1 5 660 3820";
       "static-crash rounds=6 true 1-11111-11---111 5 660 3840";
       "static-crash rounds=6 true 11--111111-11-1- 5 660 3820" ]);
    ("las-vegas vs staggered-crash-1",
     [ "staggered-crash-1 rounds=6 true 11111-1-1-11-1-1 5 900 5124";
       "staggered-crash-1 rounds=6 true --1111-111-1111- 5 900 5144";
       "staggered-crash-1 rounds=6 true 1-11111---11-111 5 900 5144" ]);
    ("las-vegas vs committee-killer",
     [ "committee-killer rounds=16 true -1-11-1-1-111111 5 2435 15175";
       "committee-killer rounds=14 true --1-1--111111111 5 2014 12388";
       "committee-killer rounds=14 true -1--1-1-11111111 5 2070 12713" ]);
    ("las-vegas vs crash-committee-killer",
     [ "crash-committee-killer rounds=14 true -1-1--1-11111111 5 2086 12749";
       "crash-committee-killer rounds=6 true 1111111111111111 0 1440 8340";
       "crash-committee-killer rounds=8 true -111111111111111 1 1717 10055" ]);
    ("las-vegas vs equivocator",
     [ "equivocator rounds=6 true 0-0-00000000---0 5 750 4488";
       "equivocator rounds=6 true 0-00000-00---000 5 750 4508";
       "equivocator rounds=6 true 00--000000-00-0- 5 750 4488" ]);
    ("las-vegas vs lone-finisher-0",
     [ "lone-finisher-0 rounds=6 true 1-1--1-1111111-1 5 680 3883";
       "lone-finisher-0 rounds=6 true 000-000--0-0000- 5 680 3921";
       "lone-finisher-0 rounds=6 true 11-1111-1--111-1 5 680 3921" ]);
    ("las-vegas vs random-noise",
     [ "random-noise rounds=6 true 1111111111111111 0 1440 8340";
       "random-noise rounds=6 true 111111111-111111 1 1326 7753";
       "random-noise rounds=6 true 1111111111111--1 2 1347 7822" ]);
    ("phase-king vs silent",
     [ "silent rounds=8 true 1111111111111111 0 1020 4845";
       "silent rounds=8 true 1111111111111111 0 1020 4845";
       "silent rounds=8 true 1111111111111111 0 1020 4845" ]);
    ("phase-king vs static-crash",
     [ "static-crash rounds=8 true 0000--00000-0000 3 672 3192";
       "static-crash rounds=8 true 000-000000--0000 3 660 3132";
       "static-crash rounds=8 true 00000-000-0-0000 3 672 3192" ]);
    ("phase-king vs staggered-crash-1",
     [ "staggered-crash-1 rounds=8 true 00000-000-00-000 3 727 3412";
       "staggered-crash-1 rounds=8 true -11111-11111111- 3 727 3412";
       "staggered-crash-1 rounds=8 true 0000000---000000 3 727 3412" ]);
    ("ks-sample vs silent",
     [ "silent rounds=8 true 0000000000000000 0 481 2021";
       "silent rounds=8 true 0000000000000000 0 438 1806";
       "silent rounds=9 true 0000000000000000 0 487 2051" ]);
    ("ks-sample vs static-crash",
     [ "static-crash rounds=8 true 0000--00000-0000 3 274 1121";
       "static-crash rounds=8 true 000-000000--0000 3 289 1203";
       "static-crash rounds=7 true 00000-000-0-0000 3 280 1148" ]);
    ("ks-sample vs staggered-crash-1",
     [ "staggered-crash-1 rounds=8 true 00000-000-00-000 3 301 1216";
       "staggered-crash-1 rounds=8 true -00000-00000000- 3 322 1327";
       "staggered-crash-1 rounds=7 true 0000000---000000 3 288 1159" ]);
    ("capped static-crash with drop and duplicate faults",
     [ "static-crash-capped-11 rounds=176 false -1--1-----1-1-----1----1------------1--- 11 84147 726827";
       "static-crash-capped-11 rounds=8 true 1-1--1-11-111-111111-111-1-1-111111111-1 11 4671 26639";
       "static-crash-capped-11 rounds=176 false -1---1----1-------1--1---1-----1--1----1 11 71921 615143" ]);
    ("async fifo vs ben-or",
     [ "fifo steps=464 true 1111111111111111 0 464 2320";
       "fifo steps=464 true 1111111111111111 0 464 2320";
       "fifo steps=464 true 1111111111111111 0 464 2320" ]);
    ("async random vs ben-or",
     [ "random-scheduler steps=467 true 1111111111111111 0 467 2335";
       "random-scheduler steps=982 true 1111111111111111 0 982 5380";
       "random-scheduler steps=469 true 1111111111111111 0 469 2345" ]);
    ("async delayer vs ben-or",
     [ "delayer steps=464 true 1111111111111111 0 464 2320";
       "delayer steps=464 true 1111111111111111 0 464 2320";
       "delayer steps=464 true 1111111111111111 0 464 2320" ]);
    ("async balancer vs ben-or",
     [ "ben-or-balancer steps=1494 true 1111111111111111 0 1494 8452";
       "ben-or-balancer steps=5590 true 1111111111111111 0 5590 36058";
       "ben-or-balancer steps=9179 true 0000000000000000 0 9179 63704" ]);
    ("async splitter vs ben-or",
     [ "ben-or-splitter steps=760 true 11-111-111-11111 3 1242 6732";
       "ben-or-splitter steps=582 true 1-111-11111111-1 3 940 4882";
       "ben-or-splitter steps=517 true 111111-11-1111-1 3 847 4321" ]);
    ("async fifo vs rbc",
     [ "fifo steps=448 true 1111111111111111 0 448 1344";
       "fifo steps=448 true 1111111111111111 0 448 1344";
       "fifo steps=448 true 1111111111111111 0 448 1344" ]);
    ("async random vs rbc",
     [ "random-scheduler steps=453 true 1111111111111111 0 453 1359";
       "random-scheduler steps=451 true 1111111111111111 0 451 1353";
       "random-scheduler steps=453 true 1111111111111111 0 453 1359" ]);
    ("async delayer vs rbc",
     [ "delayer steps=448 true 1111111111111111 0 448 1344";
       "delayer steps=448 true 1111111111111111 0 448 1344";
       "delayer steps=448 true 1111111111111111 0 448 1344" ]) ]

let test_known_answers () =
  Alcotest.(check (list (pair string (list string)))) "known answers" kat_expected (kat_table ())

let () =
  Alcotest.run "ba_setups"
    [ ("parsing",
       [ Alcotest.test_case "protocol roundtrip" `Quick test_parse_roundtrip;
         Alcotest.test_case "unknown rejected" `Quick test_parse_unknown;
         Alcotest.test_case "adversaries parse" `Quick test_parse_adversaries ]);
      ("inputs",
       [ Alcotest.test_case "patterns" `Quick test_inputs_patterns;
         Alcotest.test_case "validation" `Quick test_inputs_validation ]);
      ("wiring",
       [ Alcotest.test_case "incompatible pairs" `Quick test_incompatible_pairs_rejected;
         Alcotest.test_case "run names" `Quick test_run_names;
         Alcotest.test_case "deterministic exec" `Quick test_exec_deterministic;
         Alcotest.test_case "rabin dealer varies" `Quick test_rabin_dealer_varies_with_seed;
         Alcotest.test_case "all skeleton pairs construct" `Quick
           test_all_skeleton_pairs_construct;
         Alcotest.test_case "known answers" `Quick test_known_answers ]) ]
