(* Trace checkers and export: each checker must fire on a crafted bad
   outcome and stay silent on a good one. *)

let nv ?(phase = 1) ?(finished = false) ~v ~decided () =
  Some { Ba_sim.Protocol.nv_phase = phase; nv_val = v; nv_decided = decided; nv_finished = finished }

let outcome ?(n = 4) ?(t = 1) ?(rounds = 3) ?(completed = true) ?(outputs = None)
    ?(corrupted = None) ?(corruptions_used = None) ?(inputs = None) ?(records = []) () :
    Ba_sim.Engine.outcome =
  let corrupted = Option.value corrupted ~default:(Array.make n false) in
  { protocol_name = "crafted";
    adversary_name = "crafted";
    n;
    t;
    inputs = Option.value inputs ~default:(Array.make n 1);
    rounds;
    completed;
    outputs = Option.value outputs ~default:(Array.make n (Some 1));
    corrupted;
    corruptions_used =
      Option.value corruptions_used
        ~default:(Array.fold_left (fun a c -> if c then a + 1 else a) 0 corrupted);
    metrics = Ba_sim.Metrics.create ();
    records }

let names vs = List.map (fun (v : Ba_trace.Checker.violation) -> v.check) vs

(* Names of the violations a substrate-level check reports on [o]. *)
let run_check check o = names (check (Ba_sim.Engine.to_run o))

let test_agreement_checker () =
  Alcotest.(check (list string)) "clean" [] (run_check Ba_trace.Checker.agreement_run (outcome ()));
  let bad = outcome ~outputs:(Some [| Some 1; Some 0; Some 1; Some 1 |]) () in
  Alcotest.(check (list string)) "fires" [ "agreement" ] (run_check Ba_trace.Checker.agreement_run bad)

let test_validity_checker () =
  let bad = outcome ~inputs:(Some [| 1; 1; 1; 1 |]) ~outputs:(Some (Array.make 4 (Some 0))) () in
  Alcotest.(check (list string)) "fires" [ "validity" ] (run_check Ba_trace.Checker.validity_run bad);
  (* corrupted node's deviant input doesn't matter *)
  let corrupted = [| false; false; false; true |] in
  let ok =
    outcome ~inputs:(Some [| 1; 1; 1; 0 |]) ~corrupted:(Some corrupted)
      ~outputs:(Some [| Some 1; Some 1; Some 1; None |]) ()
  in
  Alcotest.(check (list string)) "corrupt input ignored" [] (run_check Ba_trace.Checker.validity_run ok)

let test_completion_checker () =
  let bad = outcome ~completed:false () in
  Alcotest.(check (list string)) "cap hit" [ "completion" ] (run_check Ba_trace.Checker.completion_run bad);
  let undecided = outcome ~outputs:(Some [| Some 1; None; Some 1; Some 1 |]) () in
  Alcotest.(check (list string)) "missing output" [ "completion" ]
    (run_check Ba_trace.Checker.completion_run undecided)

let test_budget_checker () =
  let bad = outcome ~corrupted:(Some [| true; true; false; false |]) ~t:1 () in
  Alcotest.(check bool) "over budget fires" true
    (List.mem "corruption-budget" (names (Ba_trace.Checker.corruption_budget bad)));
  let double =
    outcome
      ~records:
        [ { rr_round = 1; rr_new_corruptions = [ 0 ]; rr_views = Array.make 4 None };
          { rr_round = 2; rr_new_corruptions = [ 0 ]; rr_views = Array.make 4 None } ]
      ~corrupted:(Some [| true; false; false; false |])
      ()
  in
  Alcotest.(check bool) "double corruption fires" true
    (List.mem "corruption-budget" (names (Ba_trace.Checker.corruption_budget double)))

let test_decided_coherence_checker () =
  let good_views = [| nv ~v:1 ~decided:true (); nv ~v:1 ~decided:true (); nv ~v:0 ~decided:false (); None |] in
  let good = outcome ~records:[ { rr_round = 1; rr_new_corruptions = []; rr_views = good_views } ] () in
  Alcotest.(check (list string)) "coherent" [] (names (Ba_trace.Checker.decided_coherence good));
  let bad_views = [| nv ~v:1 ~decided:true (); nv ~v:0 ~decided:true (); None; None |] in
  let bad = outcome ~records:[ { rr_round = 1; rr_new_corruptions = []; rr_views = bad_views } ] () in
  Alcotest.(check (list string)) "incoherent fires" [ "decided-coherence" ]
    (names (Ba_trace.Checker.decided_coherence bad))

let test_frozen_finishers_checker () =
  let records =
    [ { Ba_sim.Engine.rr_round = 1; rr_new_corruptions = [];
        rr_views = [| nv ~v:1 ~decided:true ~finished:true (); None; None; None |] };
      { rr_round = 2; rr_new_corruptions = [];
        rr_views = [| nv ~v:0 ~decided:true ~finished:true (); None; None; None |] } ]
  in
  let bad = outcome ~records () in
  Alcotest.(check bool) "value change fires" true
    (List.mem "frozen-finishers" (names (Ba_trace.Checker.frozen_finishers bad)));
  (* output mismatch *)
  let records =
    [ { Ba_sim.Engine.rr_round = 1; rr_new_corruptions = [];
        rr_views = [| nv ~v:0 ~decided:true ~finished:true (); None; None; None |] } ]
  in
  let bad2 = outcome ~records ~outputs:(Some (Array.make 4 (Some 1))) () in
  Alcotest.(check bool) "output mismatch fires" true
    (List.mem "frozen-finishers" (names (Ba_trace.Checker.frozen_finishers bad2)))

let test_frozen_finishers_deterministic () =
  (* Regression: the report used to come out in Hashtbl hash order; it must
     be identical across repeated runs on the same trace, value-change
     violations first (chronological), then output mismatches by node id. *)
  let records =
    [ { Ba_sim.Engine.rr_round = 1; rr_new_corruptions = [];
        rr_views =
          [| nv ~v:1 ~decided:true ~finished:true ();
             nv ~v:0 ~decided:true ~finished:true ();
             nv ~v:0 ~decided:true ~finished:true ();
             nv ~v:0 ~decided:true ~finished:true () |] };
      { rr_round = 2; rr_new_corruptions = [];
        rr_views =
          [| nv ~v:0 ~decided:true ~finished:true (); None; None; None |] } ]
  in
  (* Node 0 changes its frozen value (round 2); nodes 1-3 froze 0 but the
     outcome says everyone output 1. *)
  let bad = outcome ~records ~outputs:(Some (Array.make 4 (Some 1))) () in
  let details vs = List.map (fun (v : Ba_trace.Checker.violation) -> v.detail) vs in
  let first = details (Ba_trace.Checker.frozen_finishers bad) in
  Alcotest.(check (list string)) "expected order"
    [ "round 2: finished node 0 changed 1 -> 0";
      "node 1 froze 0 but output 1";
      "node 2 froze 0 but output 1";
      "node 3 froze 0 but output 1" ]
    first;
  for _ = 1 to 10 do
    Alcotest.(check (list string)) "identical across runs" first
      (details (Ba_trace.Checker.frozen_finishers bad))
  done

let test_corruption_budget_order () =
  (* Same determinism contract for the budget checker: budget overflow
     first, then count incoherence, then chronological double corruptions. *)
  let records =
    [ { Ba_sim.Engine.rr_round = 1; rr_new_corruptions = [ 0; 1 ]; rr_views = Array.make 4 None };
      { rr_round = 2; rr_new_corruptions = [ 0; 1 ]; rr_views = Array.make 4 None } ]
  in
  let bad =
    outcome ~records ~t:1 ~corrupted:(Some [| true; true; false; false |]) ~corruptions_used:(Some 3) ()
  in
  let details vs = List.map (fun (v : Ba_trace.Checker.violation) -> v.detail) vs in
  let first = details (Ba_trace.Checker.corruption_budget bad) in
  Alcotest.(check (list string)) "expected order"
    [ "2 corrupted > budget t=1";
      "used=3 but 2 nodes marked corrupted";
      "node 0 corrupted twice (round 2)";
      "node 1 corrupted twice (round 2)" ]
    first;
  Alcotest.(check (list string)) "identical across runs" first
    (details (Ba_trace.Checker.corruption_budget bad))

let test_termination_gap_checker () =
  let finished_views = [| nv ~v:1 ~decided:true ~finished:true (); None; None; None |] in
  let mk_records upto =
    List.init upto (fun i ->
        { Ba_sim.Engine.rr_round = i + 1; rr_new_corruptions = [];
          rr_views = (if i = 0 then finished_views else Array.make 4 None) })
  in
  let ok = outcome ~rounds:6 ~records:(mk_records 6) () in
  Alcotest.(check (list string)) "within window" []
    (names (Ba_trace.Checker.termination_gap ~rounds_per_phase:2 ok));
  let bad = outcome ~rounds:20 ~records:(mk_records 20) () in
  Alcotest.(check (list string)) "stale finisher fires" [ "termination-gap" ]
    (names (Ba_trace.Checker.termination_gap ~rounds_per_phase:2 bad))

let test_standard_composition () =
  (* standard on a genuinely clean engine run. *)
  let inst = Ba_core.Agreement.make ~n:13 ~t:4 () in
  let o =
    Ba_sim.Engine.run ~record:true ~protocol:inst.protocol
      ~adversary:Ba_sim.Adversary.silent ~n:13 ~t:4
      ~inputs:(Array.init 13 (fun i -> i mod 2)) ~seed:3L ()
  in
  Alcotest.(check (list string)) "all pass" []
    (names (Ba_trace.Checker.standard ~rounds_per_phase:2 o))

let test_export_csv () =
  let path = Filename.temp_file "ba_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ba_trace.Export.to_csv ~path
        [ [ ("a", "1"); ("b", "x,y") ]; [ ("a", "2"); ("b", "has \"quotes\"") ] ];
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      match List.rev !lines with
      | [ header; r1; r2 ] ->
          Alcotest.(check string) "header" "a,b" header;
          Alcotest.(check string) "quoted comma" "1,\"x,y\"" r1;
          Alcotest.(check string) "escaped quotes" "2,\"has \"\"quotes\"\"\"" r2
      | l -> Alcotest.failf "expected 3 lines, got %d" (List.length l))

let test_outcome_row_fields () =
  let row = Ba_trace.Export.outcome_row (outcome ()) in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (List.mem_assoc key row))
    [ "protocol"; "adversary"; "n"; "t"; "rounds"; "messages"; "bits"; "agreement"; "validity" ]

let test_round_rows () =
  let records =
    [ { Ba_sim.Engine.rr_round = 1; rr_new_corruptions = [ 2; 3 ];
        rr_views = [| nv ~v:1 ~decided:true (); nv ~v:1 ~decided:false ~finished:true (); None; None |] } ]
  in
  match Ba_trace.Export.round_rows (outcome ~records ()) with
  | [ row ] ->
      Alcotest.(check string) "round" "1" (List.assoc "round" row);
      Alcotest.(check string) "corruptions" "2;3" (List.assoc "new_corruptions" row);
      Alcotest.(check string) "live" "2" (List.assoc "live" row);
      Alcotest.(check string) "decided" "1" (List.assoc "decided" row);
      Alcotest.(check string) "finished" "1" (List.assoc "finished" row)
  | l -> Alcotest.failf "expected 1 row, got %d" (List.length l)

let test_timeline_renders () =
  let inst = Ba_core.Agreement.make ~n:13 ~t:4 () in
  let designated ~phase v = Ba_core.Agreement.is_flipper inst ~phase v in
  let adv =
    Ba_adversary.Skeleton_adv.committee_killer ~config:inst.Ba_core.Agreement.config ~designated
  in
  let o =
    Ba_sim.Engine.run ~record:true ~protocol:inst.protocol ~adversary:adv ~n:13 ~t:4
      ~inputs:(Array.init 13 (fun i -> i mod 2)) ~seed:21L ()
  in
  let s = Ba_trace.Timeline.render o in
  Alcotest.(check bool) "mentions protocol" true
    (String.length s > 0 && String.sub s 0 9 = "timeline:");
  (* one line per node plus header/legend *)
  let lines = List.length (String.split_on_char '\n' s) in
  Alcotest.(check bool) (Printf.sprintf "%d lines" lines) true (lines >= 13 + 3);
  Alcotest.(check bool) "shows corruption" true (String.contains s 'x');
  Alcotest.(check bool) "shows finish" true (String.contains s 'A' || String.contains s 'B')

let test_timeline_no_records () =
  let inst = Ba_core.Agreement.make ~n:7 ~t:2 () in
  let o =
    Ba_sim.Engine.run ~protocol:inst.protocol ~adversary:Ba_sim.Adversary.silent ~n:7 ~t:2
      ~inputs:(Array.make 7 1) ~seed:1L ()
  in
  let s = Ba_trace.Timeline.render o in
  Alcotest.(check bool) "notes missing records" true
    (String.length s > 0 &&
     List.exists (fun l -> l = "(no records — run the engine with ~record:true)")
       (String.split_on_char '\n' s))

let test_timeline_cropping () =
  let inst = Ba_core.Agreement.make ~n:13 ~t:4 () in
  let o =
    Ba_sim.Engine.run ~record:true ~protocol:inst.protocol ~adversary:Ba_sim.Adversary.silent
      ~n:13 ~t:4 ~inputs:(Array.init 13 (fun i -> i mod 2)) ~seed:2L ()
  in
  let s = Ba_trace.Timeline.render ~max_nodes:5 ~max_rounds:3 o in
  Alcotest.(check bool) "crop note" true
    (List.exists
       (fun l -> String.length l > 6 && String.sub l 0 6 = "  ... ")
       (String.split_on_char '\n' s))

let () =
  Alcotest.run "ba_trace"
    [ ("checkers",
       [ Alcotest.test_case "agreement" `Quick test_agreement_checker;
         Alcotest.test_case "validity" `Quick test_validity_checker;
         Alcotest.test_case "completion" `Quick test_completion_checker;
         Alcotest.test_case "corruption budget" `Quick test_budget_checker;
         Alcotest.test_case "decided coherence" `Quick test_decided_coherence_checker;
         Alcotest.test_case "frozen finishers" `Quick test_frozen_finishers_checker;
         Alcotest.test_case "frozen finishers deterministic" `Quick
           test_frozen_finishers_deterministic;
         Alcotest.test_case "corruption budget order" `Quick test_corruption_budget_order;
         Alcotest.test_case "termination gap" `Quick test_termination_gap_checker;
         Alcotest.test_case "standard composition" `Quick test_standard_composition ]);
      ("export",
       [ Alcotest.test_case "csv escaping" `Quick test_export_csv;
         Alcotest.test_case "outcome row" `Quick test_outcome_row_fields;
         Alcotest.test_case "round rows" `Quick test_round_rows ]);
      ("timeline",
       [ Alcotest.test_case "renders" `Quick test_timeline_renders;
         Alcotest.test_case "no records" `Quick test_timeline_no_records;
         Alcotest.test_case "cropping" `Quick test_timeline_cropping ]) ]
