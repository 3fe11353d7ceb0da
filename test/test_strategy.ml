(* Strategy IR (DESIGN.md §16): the remaining named constructors must be
   byte-identical to the direct lowering of their catalog points, and the
   other crash points must keep their pinned schedules (test_setups pins
   whole runs of every named kind); the fault-plan silence lowering must
   reproduce E19's wave construction, and
   Generic.capped must respect its budget under seed-derived corruption
   timing (QCheck), diverging from the uncapped run only once the cap
   binds. *)

module Strategy = Ba_adversary.Strategy
module Adv = Ba_sim.Adversary
module Rng = Ba_prng.Rng

let mk_view ?(round = 1) ?(n = 10) ?(t = 4) ?(corrupted = None) ?(halted = None)
    ?(budget_left = None) () : (unit, Ba_core.Skeleton.msg) Adv.view =
  { Adv.round;
    n;
    t;
    corrupted = Option.value corrupted ~default:(Array.make n false);
    budget_left = Option.value budget_left ~default:t;
    halted = Option.value halted ~default:(Array.make n false);
    honest_msgs = Array.make n None;
    states = Array.make n None;
    views = Array.make n None }

(* Replay an adversary through [rounds] views with engine-style budget
   accounting (each corruption consumes budget once, duplicates ignored)
   and return the per-round corrupt lists. *)
let drive adv ~n ~t ~rounds =
  let corrupted = Array.make n false in
  let used = ref 0 in
  List.init rounds (fun i ->
      let round = i + 1 in
      let view =
        mk_view ~round ~n ~t
          ~corrupted:(Some (Array.copy corrupted))
          ~budget_left:(Some (max 0 (t - !used)))
          ()
      in
      let action = adv.Adv.act view in
      List.iter
        (fun v ->
          if v >= 0 && v < n && (not corrupted.(v)) && !used < t then begin
            corrupted.(v) <- true;
            incr used
          end)
        action.Adv.corrupt;
      action.Adv.corrupt)

(* --- wrappers vs direct IR lowering (view-level identity) --- *)

let check_same_schedule name wrapper lowered =
  let n = 10 and t = 4 and rounds = 6 in
  Alcotest.(check (list (list int)))
    (name ^ " corrupt schedule")
    (drive wrapper ~n ~t ~rounds)
    (drive lowered ~n ~t ~rounds)

let test_generic_identity () =
  let seed = 0x5eedL in
  check_same_schedule "static-crash"
    (Ba_adversary.Generic.static_crash ~rng:(Rng.create seed))
    (Strategy.to_generic ~rng:(Rng.create seed) Strategy.static_crash_point);
  (* Points with no wrapper left: their schedules as the wrappers drew
     them. *)
  let pinned name expected lowered =
    Alcotest.(check (list (list int)))
      (name ^ " corrupt schedule")
      expected
      (drive lowered ~n:10 ~t:4 ~rounds:6)
  in
  pinned "staggered-crash-2"
    [ [ 4; 0 ]; [ 6; 2 ]; []; []; []; [] ]
    (Strategy.to_generic ~rng:(Rng.create seed) (Strategy.staggered_crash_point ~per_round:2));
  pinned "crash-at-3"
    [ []; []; [ 1; 2 ]; []; []; [] ]
    (Strategy.to_generic (Strategy.crash_at_point ~round:3 ~victims:[ 1; 2 ]))

(* --- named kinds vs Ir genomes (engine-level identity) ---

   Setups maps each named kind to the genome listed here, so this only
   checks that mapping; the known-answer table in test_setups is what
   catches a drift in the runs themselves. *)

let engine_pairs : (string * Ba_experiments.Setups.adversary_kind * Strategy.genome) list =
  [ ("silent", Silent, Strategy.silent_point);
    ("static-crash", Static_crash, Strategy.static_crash_point);
    ("staggered-crash", Staggered_crash 2, Strategy.staggered_crash_point ~per_round:2);
    ("committee-killer", Committee_killer, Strategy.committee_killer_point);
    ("crash-committee-killer", Crash_committee_killer, Strategy.crash_committee_killer_point);
    ("equivocator", Equivocator, Strategy.equivocator_point);
    ("lone-finisher", Lone_finisher 0, Strategy.lone_finisher_point ~target:0);
    ("random-noise", Random_noise 0.4, Strategy.random_noise_point ~corrupt_prob:0.4) ]

let outcome_fingerprint (o : Ba_sim.Engine.outcome) =
  ( o.Ba_sim.Engine.rounds,
    o.Ba_sim.Engine.completed,
    Ba_sim.Engine.agreement_holds o,
    Ba_sim.Engine.honest_outputs o )

let test_engine_identity () =
  let n = 16 and t = 5 in
  let inputs = Ba_experiments.Setups.inputs Split ~n ~t in
  List.iter
    (fun (name, kind, genome) ->
      let run adversary =
        let setup =
          Ba_experiments.Setups.make ~protocol:(Las_vegas { alpha = 2.0 }) ~adversary ~n ~t
        in
        List.init 3 (fun i ->
            outcome_fingerprint
              (setup.Ba_experiments.Setups.exec ~record:false ~inputs
                 ~seed:(Int64.of_int (2026 + i))
                 ()))
      in
      Alcotest.(check bool)
        (name ^ ": legacy kind and Ir genome give identical outcomes")
        true
        (run kind = run (Ir genome)))
    engine_pairs

(* --- silence-placement lowering --- *)

let test_to_silences_waves () =
  let shape = { Strategy.sw_group = 3; sw_len = 4; sw_waves = 4; sw_start = 1 } in
  let expected =
    List.concat_map
      (fun j ->
        let lo = 1 + (j * 4) in
        List.init 3 (fun i ->
            { Ba_sim.Faults.s_node = (j * 3) + i; s_from = lo; s_until = lo + 4 }))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool)
    "rotating wave schedule matches E19's construction" true
    (Strategy.to_silences shape = expected);
  Alcotest.(check int) "no waves, no silences" 0
    (List.length (Strategy.to_silences { shape with sw_waves = 0 }))

(* --- validation, naming, serialization --- *)

let test_catalog_valid () =
  let catalog = Strategy.catalog ~t:5 in
  Alcotest.(check bool) "catalog is non-empty" true (catalog <> []);
  List.iter
    (fun (nm, g) ->
      (match Strategy.validate g with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "catalog point %s invalid: %s" nm msg);
      Alcotest.(check bool) (nm ^ " has a display name") true (String.length (Strategy.name g) > 0);
      (* canonical JSON parses and exposes the five genome fields *)
      let doc = Ba_harness.Json.of_string (Strategy.to_json g) in
      List.iter
        (fun field ->
          match Ba_harness.Json.member field doc with
          | Some _ -> ()
          | None -> Alcotest.failf "%s: to_json misses field %s" nm field)
        [ "timing"; "target"; "tactic"; "silences"; "async" ];
      Alcotest.(check string) (nm ^ " encode = canonical json") (Strategy.to_json g)
        (Strategy.encode g))
    catalog;
  let names = List.map fst catalog in
  Alcotest.(check int) "catalog names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_validate_rejects () =
  let bad =
    [ ("burst round 0", { Strategy.base with g_timing = T_burst 0 });
      ("noise prob > 1", { Strategy.base with g_timing = T_random 1.5 });
      ( "empty skew weights",
        { Strategy.base with
          g_tactic = Equivocate { ep_w0 = 0; ep_w1 = 0; ep_decided_late = true; ep_flip_mod = 4 }
        } );
      ( "odd flip mod",
        { Strategy.base with
          g_tactic = Equivocate { ep_w0 = 1; ep_w1 = 1; ep_decided_late = true; ep_flip_mod = 3 }
        } );
      ("chaos drop > 1", { Strategy.base with g_tactic = Chaos { drop_prob = 1.5 } });
      ( "zero-length silence wave",
        { Strategy.base with
          g_silences = Some { sw_group = 1; sw_len = 0; sw_waves = 2; sw_start = 1 } } ) ]
  in
  List.iter
    (fun (what, g) ->
      match Strategy.validate g with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "validate accepted %s" what)
    bad

let test_lowering_needs_rng () =
  (* randomized schedules refuse to act without an rng *)
  let adv = Strategy.to_generic Strategy.static_crash_point in
  match adv.Adv.act (mk_view ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sampling genome acted without ~rng"

(* --- QCheck: Generic.capped under seed-derived corruption timing --- *)

let is_prefix xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go (xs, ys)
  in
  go (xs, ys)

let prop_capped_budget =
  QCheck.Test.make ~count:100
    ~name:"Generic.capped: budget never exceeded; divergence only after the cap binds"
    QCheck.(triple int64 (int_range 0 6) (int_range 1 3))
    (fun (seed, limit, per_round) ->
      let n = 10 and t = 6 and rounds = 8 in
      let genome =
        { Strategy.base with
          g_timing = T_staggered { per_round; from_round = 1 };
          g_target = Tg_live_shuffle }
      in
      let capped =
        Ba_adversary.Generic.capped ~limit (Strategy.to_generic ~rng:(Rng.create seed) genome)
      in
      let uncapped = Strategy.to_generic ~rng:(Rng.create seed) genome in
      let corr_c = Array.make n false and corr_u = Array.make n false in
      let used_c = ref 0 and used_u = ref 0 in
      let returned = ref 0 in
      let diverged = ref false in
      let ok = ref true in
      let apply corr used vs =
        List.iter
          (fun v ->
            if (not corr.(v)) && !used < t then begin
              corr.(v) <- true;
              incr used
            end)
          vs
      in
      for round = 1 to rounds do
        let view corr used =
          mk_view ~round ~n ~t
            ~corrupted:(Some (Array.copy corr))
            ~budget_left:(Some (max 0 (t - used)))
            ()
        in
        let ac = (capped.Adv.act (view corr_c !used_c)).Adv.corrupt in
        let au = (uncapped.Adv.act (view corr_u !used_u)).Adv.corrupt in
        returned := !returned + List.length ac;
        if not !diverged then begin
          if ac <> au then begin
            (* first divergence is legal only when this round's uncapped
               demand exceeds what the cap has left, and even then the
               capped action is a truncation, not a different pick *)
            if limit - !used_c >= List.length au then ok := false;
            if not (is_prefix ac au) then ok := false;
            diverged := true
          end
        end;
        apply corr_c used_c ac;
        apply corr_u used_u au
      done;
      !ok && !returned <= limit)

let () =
  Alcotest.run "strategy"
    [ ( "ir-identity",
        [ Alcotest.test_case "generic wrappers = direct lowering" `Quick test_generic_identity;
          Alcotest.test_case "legacy kinds = Ir genomes (engine)" `Slow test_engine_identity ] );
      ("silences", [ Alcotest.test_case "wave lowering" `Quick test_to_silences_waves ]);
      ( "genome",
        [ Alcotest.test_case "catalog validates and serializes" `Quick test_catalog_valid;
          Alcotest.test_case "validate rejects bad genomes" `Quick test_validate_rejects;
          Alcotest.test_case "sampling lowering needs rng" `Quick test_lowering_needs_rng ] );
      ("capped", [ QCheck_alcotest.to_alcotest prop_capped_budget ]) ]
