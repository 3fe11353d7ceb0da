(* Common coin (Algorithms 1 & 2): protocol semantics, Theorem 3 bound,
   closed-form model exactness. *)

let run_coin ?(adversary = Ba_sim.Adversary.silent) ~protocol ~n ~t ~seed () =
  Ba_sim.Engine.run ~max_rounds:2 ~protocol ~adversary ~n ~t ~inputs:(Array.make n 0) ~seed ()

let test_no_adversary_all_agree () =
  for s = 1 to 30 do
    let o =
      run_coin ~protocol:Ba_core.Common_coin.algorithm1 ~n:21 ~t:0 ~seed:(Int64.of_int s) ()
    in
    Alcotest.(check bool) "one round" true (o.rounds = 1);
    Alcotest.(check bool) "agreement" true (Ba_sim.Engine.agreement_holds o)
  done

let test_output_is_sign_of_sum () =
  (* With an odd number of flippers and no adversary the sum is never 0;
     reconstruct the flips from a parallel RNG and check the output bit. *)
  let n = 9 in
  let o = run_coin ~protocol:Ba_core.Common_coin.algorithm1 ~n ~t:0 ~seed:123L () in
  (* Recompute each node's flip exactly as the engine derives node RNGs. *)
  let master = Ba_prng.Rng.create 123L in
  let rngs = Ba_prng.Rng.split_n master n in
  let sum = Array.fold_left (fun acc rng -> acc + Ba_prng.Rng.sign rng) 0 rngs in
  let expected = if sum >= 0 then 1 else 0 in
  List.iter
    (fun (_, b) -> Alcotest.(check int) "sign of sum" expected b)
    (Ba_sim.Engine.honest_outputs o)

let test_algorithm2_only_designated_count () =
  (* Designated = {0..3}; a silent run's coin is the sign of just their
     flips even though everyone outputs. *)
  let n = 12 in
  let designated v = v < 4 in
  let protocol = Ba_core.Common_coin.algorithm2 ~designated in
  let o = run_coin ~protocol ~n ~t:0 ~seed:77L () in
  let master = Ba_prng.Rng.create 77L in
  let rngs = Ba_prng.Rng.split_n master n in
  let sum = ref 0 in
  Array.iteri (fun v rng -> if designated v then sum := !sum + Ba_prng.Rng.sign rng) rngs;
  let expected = if !sum >= 0 then 1 else 0 in
  List.iter (fun (_, b) -> Alcotest.(check int) "designated-only sum" expected b)
    (Ba_sim.Engine.honest_outputs o);
  (* all n nodes decide, not only designated ones *)
  Alcotest.(check int) "all output" n (List.length (Ba_sim.Engine.honest_outputs o))

let test_invalid_flips_ignored () =
  (* A Byzantine designated node sending garbage (value 7) must not crash
     or bias beyond its +-1 allowance; value 7 is simply dropped. *)
  let n = 8 in
  let designated _ = true in
  let garbage =
    { Ba_sim.Adversary.adv_name = "garbage";
      act =
        (fun view ->
          { Ba_sim.Adversary.corrupt = (if view.round = 1 then [ 0 ] else []);
            byz_msg = (fun ~src:_ ~dst:_ -> Some (Ba_core.Common_coin.Flip 7)) }) }
  in
  let o =
    run_coin ~adversary:garbage ~protocol:(Ba_core.Common_coin.algorithm2 ~designated) ~n ~t:1
      ~seed:5L ()
  in
  Alcotest.(check bool) "still agree (garbage dropped everywhere)" true
    (Ba_sim.Engine.agreement_holds o)

let test_splitter_splits_when_affordable () =
  (* Tiny committee, huge budget: the splitter must prevent a common coin
     whenever the honest sum is small; over many seeds it should succeed at
     least sometimes and never crash. *)
  let n = 16 in
  let split_count = ref 0 in
  for s = 1 to 50 do
    let o =
      run_coin
        ~adversary:
          (Ba_adversary.Strategy.to_coin Ba_adversary.Strategy.coin_splitter_point
             ~designated:(fun _ -> true))
        ~protocol:Ba_core.Common_coin.algorithm1 ~n ~t:5 ~seed:(Int64.of_int s) ()
    in
    if not (Ba_sim.Engine.agreement_holds o) then incr split_count
  done;
  Alcotest.(check bool) (Printf.sprintf "splits %d/50" !split_count) true (!split_count > 10)

let test_theorem3_bound_monte_carlo () =
  (* Pr(Comm) >= 1/6 at the paper's corruption limit, multiple sizes. *)
  let rng = Ba_prng.Rng.create 42L in
  List.iter
    (fun k ->
      let budget = int_of_float (sqrt (float_of_int k)) / 2 in
      let p, p1 =
        Ba_core.Common_coin.success_probability rng ~flippers:k ~budget ~trials:30000
      in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d Pr(Comm)=%.3f >= 1/6" k p)
        true
        (p >= 1. /. 6.);
      Alcotest.(check bool)
        (Printf.sprintf "k=%d bias %.3f bounded" k p1)
        true
        (p1 > 0.25 && p1 < 0.75))
    [ 16; 64; 256; 1024; 4096 ]

let test_commons_exact_cases () =
  let c = Ba_core.Common_coin.commons in
  (* No byzantine: sign decides, tie -> 1. *)
  Alcotest.(check (option int)) "sum 3, b 0" (Some 1) (c ~flippers:5 ~sum:3 ~budget:0);
  Alcotest.(check (option int)) "sum -3, b 0" (Some 0) (c ~flippers:5 ~sum:(-3) ~budget:0);
  Alcotest.(check (option int)) "sum 0, b 0 -> common 1 (tie rule)" (Some 1)
    (c ~flippers:4 ~sum:0 ~budget:0);
  (* sum 0 with any budget: corrupt one +1 flipper -> receiver range [-2, 0]:
     can show -1 to some (0) and 0 to others (1): split. *)
  Alcotest.(check (option int)) "sum 0, b 1 splits" None (c ~flippers:4 ~sum:0 ~budget:1);
  (* sum 2: j=2 corruptions reach -2 < 0 while others see 2 >= 0. j=1 gives
     range [0,2]: all >= 0, still common. *)
  Alcotest.(check (option int)) "sum 2, b 1 common" (Some 1) (c ~flippers:6 ~sum:2 ~budget:1);
  Alcotest.(check (option int)) "sum 2, b 2 splits" None (c ~flippers:6 ~sum:2 ~budget:2);
  (* negative side is asymmetric (>= 0 tie): sum -1 needs j=1 to lift a
     receiver to >= 0 (range [-1, 1] with one equivocator). *)
  Alcotest.(check (option int)) "sum -1, b 0 common 0" (Some 0) (c ~flippers:5 ~sum:(-1) ~budget:0);
  Alcotest.(check (option int)) "sum -1, b 1 splits" None (c ~flippers:5 ~sum:(-1) ~budget:1);
  (* majority availability cap: flippers=2, sum=2 (both +1), budget huge:
     corrupt both -> X'=0, I=2, range [-2,2] astride 0: splits. *)
  Alcotest.(check (option int)) "majority cap still splits" None
    (c ~flippers:2 ~sum:2 ~budget:100);
  (* flippers=1, sum=1: corrupt the only flipper: X'=0, I=1: range [-1,1]:
     split. *)
  Alcotest.(check (option int)) "single flipper splittable" None
    (c ~flippers:1 ~sum:1 ~budget:1)

let test_commons_validation () =
  Alcotest.check_raises "budget < 0" (Invalid_argument "Common_coin.commons: budget < 0")
    (fun () -> ignore (Ba_core.Common_coin.commons ~flippers:4 ~sum:0 ~budget:(-1)));
  Alcotest.check_raises "|sum| > flippers"
    (Invalid_argument "Common_coin.commons: |sum| > flippers") (fun () ->
      ignore (Ba_core.Common_coin.commons ~flippers:2 ~sum:3 ~budget:0))

let test_honest_sum_parity_and_range () =
  let rng = Ba_prng.Rng.create 9L in
  for _ = 1 to 2000 do
    let g = 1 + Ba_prng.Rng.int rng 200 in
    let x = Ba_core.Common_coin.honest_sum rng ~flippers:g in
    Alcotest.(check bool) "range" true (abs x <= g);
    Alcotest.(check int) "parity" (g mod 2) (abs x mod 2)
  done;
  Alcotest.(check int) "zero flippers" 0 (Ba_core.Common_coin.honest_sum rng ~flippers:0)

let test_honest_sum_moments () =
  let rng = Ba_prng.Rng.create 10L in
  let s = Ba_stats.Summary.create () in
  let g = 1000 in
  for _ = 1 to 20000 do
    Ba_stats.Summary.add_int s (Ba_core.Common_coin.honest_sum rng ~flippers:g)
  done;
  Alcotest.(check bool) "mean near 0" true (Float.abs (Ba_stats.Summary.mean s) < 1.0);
  let v = Ba_stats.Summary.variance s in
  Alcotest.(check bool)
    (Printf.sprintf "variance %f near g" v)
    true
    (v > 0.93 *. float_of_int g && v < 1.07 *. float_of_int g)

(* Model vs engine: the closed-form commons must exactly predict whether
   the engine splitter can break agreement, given the same flips. *)
let prop_model_matches_engine =
  QCheck.Test.make ~name:"closed form matches engine splitter" ~count:60
    QCheck.(pair (int_range 4 40) int64)
    (fun (n, seed) ->
      let budget = max 1 (int_of_float (sqrt (float_of_int n)) / 2) in
      let o =
        run_coin
          ~adversary:
          (Ba_adversary.Strategy.to_coin Ba_adversary.Strategy.coin_splitter_point
             ~designated:(fun _ -> true))
          ~protocol:Ba_core.Common_coin.algorithm1 ~n ~t:budget ~seed ()
      in
      (* Reconstruct the pre-corruption flips. *)
      let master = Ba_prng.Rng.create seed in
      let rngs = Ba_prng.Rng.split_n master n in
      let sum = Array.fold_left (fun acc rng -> acc + Ba_prng.Rng.sign rng) 0 rngs in
      match Ba_core.Common_coin.commons ~flippers:n ~sum ~budget with
      | Some b ->
          Ba_sim.Engine.agreement_holds o
          && List.for_all (fun (_, out) -> out = b) (Ba_sim.Engine.honest_outputs o)
      | None -> not (Ba_sim.Engine.agreement_holds o))

let prop_success_prob_above_bound =
  QCheck.Test.make ~name:"Pr(Comm) >= 1/6 at the paper limit" ~count:20
    (QCheck.int_range 16 2048) (fun k ->
      let rng = Ba_prng.Rng.create (Int64.of_int (k * 7919)) in
      let budget = int_of_float (sqrt (float_of_int k)) / 2 in
      let p, _ = Ba_core.Common_coin.success_probability rng ~flippers:k ~budget ~trials:4000 in
      p >= 1. /. 6.)

let () =
  Alcotest.run "ba_common_coin"
    [ ("protocol",
       [ Alcotest.test_case "no adversary agrees in 1 round" `Quick test_no_adversary_all_agree;
         Alcotest.test_case "output = sign of sum" `Quick test_output_is_sign_of_sum;
         Alcotest.test_case "algorithm 2 counts designated only" `Quick
           test_algorithm2_only_designated_count;
         Alcotest.test_case "invalid flips ignored" `Quick test_invalid_flips_ignored;
         Alcotest.test_case "splitter splits when affordable" `Quick
           test_splitter_splits_when_affordable ]);
      ("theorem-3",
       [ Alcotest.test_case "Pr(Comm) >= 1/6" `Slow test_theorem3_bound_monte_carlo ]);
      ("closed-form",
       [ Alcotest.test_case "commons exact cases" `Quick test_commons_exact_cases;
         Alcotest.test_case "commons validation" `Quick test_commons_validation;
         Alcotest.test_case "honest_sum parity/range" `Quick test_honest_sum_parity_and_range;
         Alcotest.test_case "honest_sum moments" `Slow test_honest_sum_moments ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_model_matches_engine;
         QCheck_alcotest.to_alcotest prop_success_prob_above_bound ]) ]
