(* Integration: every registered experiment runs end-to-end in quick mode
   with a non-failing verdict, the registry covers DESIGN.md §5 exactly,
   and reports are deterministic in the seed. *)

let seed = 97L

let registry = Ba_experiments.Experiments.registry

let check_report (r : Ba_harness.Report.t) =
  Alcotest.(check bool) (r.id ^ " has body") true (String.length r.body > 50);
  Alcotest.(check bool) (r.id ^ " has summary") true (String.length r.summary > 20);
  Alcotest.(check bool) (r.id ^ " has metrics") true (r.metrics <> []);
  Alcotest.(check bool)
    (Printf.sprintf "%s verdict is not fail (%s)" r.id r.summary)
    true
    (r.verdict <> Ba_harness.Report.Fail)

let run_quick ~seed (d : Ba_harness.Registry.descriptor) =
  d.run ~policy:Ba_harness.Supervisor.default ~domains:1 ~quick:true ~seed

let find id =
  match Ba_harness.Registry.find registry id with
  | Some d -> d
  | None -> Alcotest.failf "%s is not registered" id

let registry_cases =
  List.map
    (fun (d : Ba_harness.Registry.descriptor) ->
      Alcotest.test_case d.id `Slow (fun () ->
          let r = run_quick ~seed d in
          Alcotest.(check string) "report id matches descriptor" d.id r.id;
          check_report r))
    (Ba_harness.Registry.all registry)

(* Every E<n> id named in DESIGN.md §5's index table must be registered
   exactly once, nothing else may be registered, and the registry lists
   the ids in numeric order E1..E23. *)
let test_design_md_coverage () =
  let text = In_channel.with_open_bin "../DESIGN.md" In_channel.input_all in
  let lines = String.split_on_char '\n' text in
  let _, design_ids =
    List.fold_left
      (fun (in_section, acc) line ->
        if String.length line >= 4 && String.sub line 0 4 = "## 5" then (true, acc)
        else if String.length line >= 3 && String.sub line 0 3 = "## " then (false, acc)
        else if in_section && String.length line > 3 && String.sub line 0 3 = "| E" then
          match String.index_from_opt line 1 '|' with
          | Some stop -> (in_section, String.trim (String.sub line 1 (stop - 1)) :: acc)
          | None -> (in_section, acc)
        else (in_section, acc))
      (false, []) lines
  in
  let design_ids = List.rev design_ids in
  Alcotest.(check int) "23 experiment rows in DESIGN.md section 5" 23
    (List.length design_ids);
  Alcotest.(check int) "DESIGN.md ids are distinct" (List.length design_ids)
    (List.length (List.sort_uniq compare design_ids));
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "%s registered exactly once" id)
        1
        (List.length
           (List.filter
              (fun (d : Ba_harness.Registry.descriptor) -> d.id = id)
              (Ba_harness.Registry.all registry))))
    design_ids;
  Alcotest.(check int) "nothing registered beyond DESIGN.md section 5"
    (List.length design_ids)
    (Ba_harness.Registry.size registry);
  Alcotest.(check (list string)) "registry in numeric id order"
    (List.init (List.length design_ids) (fun i -> Printf.sprintf "E%d" (i + 1)))
    (Ba_harness.Registry.ids registry)

let test_every_descriptor_tagged () =
  List.iter
    (fun (d : Ba_harness.Registry.descriptor) ->
      Alcotest.(check bool) (d.id ^ " has at least one tag") true (d.tags <> []);
      Alcotest.(check bool) (d.id ^ " has a claim") true (d.claim <> ""))
    (Ba_harness.Registry.all registry)

let test_determinism () =
  let e9 = find "E9" in
  let r1 = run_quick ~seed:5L e9 in
  let r2 = run_quick ~seed:5L e9 in
  Alcotest.(check string) "same seed, same report" r1.body r2.body;
  Alcotest.(check bool) "same seed, same metrics" true (r1.metrics = r2.metrics);
  let r3 = run_quick ~seed:6L e9 in
  Alcotest.(check bool) "different seed, different report" true (r1.body <> r3.body)

(* E11 merges the alpha and coin-round ablations into one report; both
   halves must survive the merge under their metric prefixes. *)
let test_e11_merges_ablations () =
  let r = run_quick ~seed (find "E11") in
  let has prefix =
    List.exists (fun (k, _) -> String.starts_with ~prefix k) r.Ba_harness.Report.metrics
  in
  Alcotest.(check bool) "alpha_* metrics" true (has "alpha_");
  Alcotest.(check bool) "coin_* metrics" true (has "coin_")

let () =
  Alcotest.run "ba_experiments"
    [ ("registry-reports", registry_cases);
      ("meta",
       [ Alcotest.test_case "DESIGN.md section 5 coverage" `Quick test_design_md_coverage;
         Alcotest.test_case "descriptors tagged and claimed" `Quick test_every_descriptor_tagged;
         Alcotest.test_case "reports deterministic in seed" `Quick test_determinism;
         Alcotest.test_case "E11 carries both ablations" `Slow test_e11_merges_ablations ]) ]
