(* Asynchronous engine + Ben-Or: delivery semantics, fairness, and the
   protocol's agreement/validity under adversarial scheduling. *)

open Ba_async
module Strategy = Ba_adversary.Strategy

(* A trivial async protocol: decide on the first message value received;
   node 0 broadcasts its input. *)
type echo_state = { my_input : int; got : int option }

let echo : (echo_state, int) Async_engine.protocol =
  { Async_engine.name = "async-echo";
    init =
      (fun ctx ~input ->
        let sends =
          if ctx.Async_engine.me = 0 then Async_engine.broadcast ~n:ctx.n input else []
        in
        ({ my_input = input; got = (if ctx.me = 0 then Some input else None) }, sends));
    on_message = (fun _ctx st ~src:_ msg ->
        ((if st.got = None then { st with got = Some msg } else st), []));
    output = (fun st -> st.got);
    msg_bits = (fun _ -> 1) }

let agreement o = Ba_sim.Run.agreement_holds (Async_engine.to_run o)

let validity o = Ba_sim.Run.validity_holds (Async_engine.to_run o)

let test_echo_delivers_everything () =
  let n = 5 in
  let o =
    Async_engine.run ~protocol:echo ~adversary:Async_engine.fifo ~n ~t:0
      ~inputs:[| 1; 0; 0; 0; 0 |] ~seed:1L ()
  in
  Alcotest.(check bool) "completed" true o.completed;
  Alcotest.(check int) "deliveries" 5 o.deliveries;
  Array.iter (fun out -> Alcotest.(check (option int)) "all got 1" (Some 1) out) o.outputs

let test_deadlock_detected () =
  (* Nobody sends: node 1..n never decide -> incomplete, no infinite loop. *)
  let silent : (echo_state, int) Async_engine.protocol =
    { echo with
      init = (fun _ctx ~input -> ({ my_input = input; got = None }, [])) }
  in
  let o =
    Async_engine.run ~protocol:silent ~adversary:Async_engine.fifo ~n:4 ~t:0
      ~inputs:(Array.make 4 0) ~seed:1L ()
  in
  Alcotest.(check bool) "incomplete" false o.completed

let test_bounded_delay_forces_delivery () =
  (* The delayer starves node 0's broadcast; the bounded-delay rule must
     still deliver it. *)
  let n = 5 in
  let o =
    Async_engine.run ~max_delay:10 ~protocol:echo
      ~adversary:(Async_adv.of_strategy (Strategy.async_delayer_point ~victims:[ 0 ]))
      ~n ~t:0 ~inputs:[| 1; 0; 0; 0; 0 |]
      ~seed:2L ()
  in
  Alcotest.(check bool) "completed despite starvation" true o.completed

let test_corruption_retracts_messages () =
  (* Corrupt node 0 at step 1: its initial broadcast must never arrive. *)
  let adv =
    Async_engine.opaque ~name:"kill-0"
        (fun view ->
          { Async_engine.deliver = None;
            corrupt = (if view.Async_engine.step = 1 then [ 0 ] else []);
            inject = [] })
  in
  let o =
    Async_engine.run ~max_steps:200 ~protocol:echo ~adversary:adv ~n:4 ~t:1
      ~inputs:[| 1; 0; 0; 0 |] ~seed:3L ()
  in
  Alcotest.(check bool) "receivers starve" false o.completed;
  Alcotest.(check int) "no deliveries" 0 o.deliveries

let test_injection_requires_corruption () =
  (* Injections from honest nodes are dropped. *)
  let adv =
    Async_engine.opaque ~name:"bad-inject"
        (fun _ -> { Async_engine.deliver = None; corrupt = []; inject = [ (1, 2, 99) ] })
  in
  let o =
    Async_engine.run ~max_steps:50 ~protocol:echo ~adversary:adv ~n:4 ~t:1
      ~inputs:[| 1; 0; 0; 0 |] ~seed:4L ()
  in
  (* node 2 must decide 1 (echo from node 0), never 99 *)
  Alcotest.(check (option int)) "forged message dropped" (Some 1) o.outputs.(2)

let test_corruption_completes_run () =
  (* Corrupting the last undecided honest node completes the run at that
     step: after a delivery (echo, fifo order) and with nothing in flight
     (where it would otherwise be a deadlock). *)
  let last_undecided (view : (_, _) Async_engine.view) =
    let left = ref [] in
    Array.iteri
      (fun v d -> if (not d) && not view.corrupted.(v) then left := v :: !left)
      view.decided;
    match !left with [ v ] -> [ v ] | _ -> []
  in
  let corrupted_at = ref 0 in
  let adv =
    Async_engine.opaque ~name:"finish-by-corruption" (fun view ->
        let corrupt = last_undecided view in
        if corrupt <> [] then corrupted_at := view.Async_engine.step;
        { Async_engine.deliver = None; corrupt; inject = [] })
  in
  let o =
    Async_engine.run ~protocol:echo ~adversary:adv ~n:4 ~t:1 ~inputs:[| 1; 0; 0; 0 |]
      ~seed:5L ()
  in
  Alcotest.(check bool) "completed" true o.completed;
  Alcotest.(check int) "corrupted at step 4" 4 !corrupted_at;
  Alcotest.(check int) "ends at the corruption step" !corrupted_at o.steps;
  Alcotest.(check int) "one corruption" 1 o.corruptions_used;
  let mute : (echo_state, int) Async_engine.protocol =
    { echo with init = (fun ctx ~input -> (fst (echo.init ctx ~input), [])) }
  in
  let o =
    Async_engine.run ~protocol:mute ~adversary:adv ~n:2 ~t:1 ~inputs:[| 1; 0 |] ~seed:5L ()
  in
  Alcotest.(check bool) "completed with nothing in flight" true o.completed;
  Alcotest.(check int) "at step 1" 1 o.steps

let test_corrupting_decided_node () =
  (* Node 1 decides at step 2 (echo, fifo order) and sends nothing, so
     corrupting it at step 3 neither retracts mail nor changes when the
     remaining honest nodes finish. *)
  let run_with corrupt_at =
    let adv =
      Async_engine.opaque ~name:"corrupt-decided" (fun view ->
          { Async_engine.deliver = None;
            corrupt = (if view.Async_engine.step = corrupt_at then [ 1 ] else []);
            inject = [] })
    in
    Async_engine.run ~protocol:echo ~adversary:adv ~n:4 ~t:1 ~inputs:[| 1; 0; 0; 0 |]
      ~seed:6L ()
  in
  let clean = run_with 0 and attacked = run_with 3 in
  Alcotest.(check bool) "clean run completes" true clean.completed;
  Alcotest.(check bool) "attacked run completes" true attacked.completed;
  Alcotest.(check int) "node 1 corrupted" 1 attacked.corruptions_used;
  Alcotest.(check int) "same completion step" clean.steps attacked.steps

let test_validation () =
  Alcotest.check_raises "bad t" (Invalid_argument "Async_engine.run: need 0 <= t < n")
    (fun () ->
      ignore
        (Async_engine.run ~protocol:echo ~adversary:Async_engine.fifo ~n:3 ~t:3
           ~inputs:(Array.make 3 0) ~seed:1L ()))

(* ---------------- Ben-Or ---------------- *)

let ben_or_run ?(n = 11) ?(t = 2) ~adversary ~inputs ~seed () =
  Async_engine.run ~protocol:(Ben_or_async.make ~n ~t) ~adversary ~n ~t ~inputs ~seed ()

let test_ben_or_validity () =
  List.iter
    (fun b ->
      let o =
        ben_or_run ~adversary:Async_engine.fifo ~inputs:(Array.make 11 b) ~seed:5L ()
      in
      Alcotest.(check bool) "completed" true o.completed;
      Alcotest.(check bool) "validity" true (validity o);
      List.iter (fun out -> Alcotest.(check (option int)) "value" (Some b) out)
        (Array.to_list o.outputs))
    [ 0; 1 ]

let test_ben_or_agreement_random_scheduler () =
  for s = 1 to 15 do
    let o =
      ben_or_run
        ~adversary:(Async_adv.random_scheduler ~rng:(Ba_prng.Rng.create (Int64.of_int s)))
        ~inputs:(Array.init 11 (fun i -> i mod 2))
        ~seed:(Int64.of_int s) ()
    in
    Alcotest.(check bool) (Printf.sprintf "seed %d completed" s) true o.completed;
    Alcotest.(check bool) (Printf.sprintf "seed %d agreement" s) true
      (agreement o)
  done

let test_ben_or_agreement_byzantine () =
  for s = 1 to 15 do
    let o =
      ben_or_run
        ~adversary:
          (Async_adv.of_strategy_ben_or
             ~rng:(Ba_prng.Rng.create (Int64.of_int (s * 13)))
             Strategy.async_splitter_point)
        ~inputs:(Array.init 11 (fun i -> i mod 2))
        ~seed:(Int64.of_int s) ()
    in
    Alcotest.(check bool) (Printf.sprintf "seed %d clean" s) true
      (o.completed && agreement o);
    Alcotest.(check bool) "budget respected" true (o.corruptions_used <= 2)
  done

let test_ben_or_validity_under_attack () =
  List.iter
    (fun b ->
      for s = 1 to 6 do
        let o =
          ben_or_run
            ~adversary:
              (Async_adv.of_strategy_ben_or ~rng:(Ba_prng.Rng.create (Int64.of_int s))
                 Strategy.async_splitter_point)
            ~inputs:(Array.make 11 b) ~seed:(Int64.of_int s) ()
        in
        Alcotest.(check bool) "clean" true (o.completed && validity o)
      done)
    [ 0; 1 ]

let test_ben_or_delayer_liveness () =
  let o =
    ben_or_run
      ~adversary:(Async_adv.of_strategy (Strategy.async_delayer_point ~victims:[ 0; 1; 2 ]))
      ~inputs:(Array.init 11 (fun i -> i mod 2)) ~seed:9L ()
  in
  Alcotest.(check bool) "terminates despite starvation" true o.completed

let test_ben_or_flooder () =
  let forge ~rng ~step:_ ~dst:_ =
    if Ba_prng.Rng.bool rng then Ben_or_async.mk_r ~round:1 ~v:(Ba_prng.Rng.int rng 2)
    else Ben_or_async.mk_d ~v:(Ba_prng.Rng.int rng 2)
  in
  for s = 1 to 8 do
    let o =
      ben_or_run
        ~adversary:(Async_adv.byz_flooder ~rng:(Ba_prng.Rng.create (Int64.of_int s)) ~forge)
        ~inputs:(Array.init 11 (fun i -> i mod 2))
        ~seed:(Int64.of_int s) ()
    in
    Alcotest.(check bool) (Printf.sprintf "seed %d clean" s) true
      (o.completed && agreement o)
  done

let test_ben_or_balancer_scheduling_attack () =
  (* Pure scheduling (zero corruptions): the balancer starves supermajorities
     by delivering minority votes first; it must cost more deliveries than
     FIFO while never breaking agreement. *)
  let n = 16 and t = 3 in
  let inputs = Array.init n (fun i -> i mod 2) in
  let total adversary_of =
    let acc = ref 0 in
    for s = 1 to 10 do
      let o =
        Async_engine.run ~protocol:(Ben_or_async.make ~n ~t) ~adversary:(adversary_of s) ~n ~t
          ~inputs ~seed:(Int64.of_int s) ()
      in
      Alcotest.(check bool) "clean" true (o.completed && agreement o);
      Alcotest.(check int) "zero corruptions" 0 o.corruptions_used;
      acc := !acc + o.deliveries
    done;
    !acc
  in
  let fifo = total (fun _ -> Async_engine.fifo) in
  let balancer =
    total (fun s ->
        Async_adv.of_strategy_ben_or ~rng:(Ba_prng.Rng.create (Int64.of_int s))
          Strategy.async_balancer_point)
  in
  Alcotest.(check bool)
    (Printf.sprintf "balancer %d > fifo %d deliveries" balancer fifo)
    true (balancer > fifo)

let test_ben_or_splitter_regression () =
  (* Pinned counterexample to the old decision rule (decide on 2t+1
     P-votes): at n=16, t=3 one node decided on 7 P-votes while another saw
     a single honest P(v) among its n-t messages and coined the other way.
     The threshold is now Ben-Or's more than (n+t)/2. *)
  let n = 16 and t = 3 in
  let module Setups = Ba_experiments.Setups in
  let arun =
    Setups.make_async ~protocol:Setups.Async_ben_or ~scheduler:Setups.Splitter_sched ~n ~t ()
  in
  let o =
    arun.Setups.arun_exec ~inputs:(Setups.inputs Setups.Near_threshold ~n ~t)
      ~seed:967191038110576494L ()
  in
  Alcotest.(check bool) "completed" true o.Ba_sim.Run.completed;
  Alcotest.(check bool) "agreement" true (Ba_sim.Run.agreement_holds o)

let test_ben_or_resilience_guard () =
  Alcotest.check_raises "n = 5t rejected"
    (Invalid_argument "Ben_or_async.make: the classic protocol needs n > 5t") (fun () ->
      ignore (Ben_or_async.make ~n:10 ~t:2))

let prop_ben_or_random_inputs_safe =
  QCheck.Test.make ~name:"ben-or agreement on random inputs and schedules" ~count:20
    QCheck.(pair int64 (int_range 0 2047))
    (fun (seed, bits) ->
      let n = 11 and t = 2 in
      let inputs = Array.init n (fun i -> (bits lsr i) land 1) in
      let o =
        Async_engine.run ~protocol:(Ben_or_async.make ~n ~t)
          ~adversary:(Async_adv.random_scheduler ~rng:(Ba_prng.Rng.create seed))
          ~n ~t ~inputs ~seed ()
      in
      o.completed && agreement o && validity o)

let () =
  Alcotest.run "ba_async"
    [ ("engine",
       [ Alcotest.test_case "echo delivery" `Quick test_echo_delivers_everything;
         Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
         Alcotest.test_case "bounded delay" `Quick test_bounded_delay_forces_delivery;
         Alcotest.test_case "corruption retracts" `Quick test_corruption_retracts_messages;
         Alcotest.test_case "injection needs corruption" `Quick test_injection_requires_corruption;
         Alcotest.test_case "corruption completes run" `Quick test_corruption_completes_run;
         Alcotest.test_case "corrupting decided node" `Quick test_corrupting_decided_node;
         Alcotest.test_case "validation" `Quick test_validation ]);
      ("ben-or",
       [ Alcotest.test_case "validity" `Quick test_ben_or_validity;
         Alcotest.test_case "agreement, random scheduler" `Quick
           test_ben_or_agreement_random_scheduler;
         Alcotest.test_case "agreement, byzantine" `Quick test_ben_or_agreement_byzantine;
         Alcotest.test_case "validity under attack" `Quick test_ben_or_validity_under_attack;
         Alcotest.test_case "delayer liveness" `Quick test_ben_or_delayer_liveness;
         Alcotest.test_case "flooder" `Quick test_ben_or_flooder;
         Alcotest.test_case "balancer scheduling attack" `Slow
           test_ben_or_balancer_scheduling_attack;
         Alcotest.test_case "splitter regression" `Quick test_ben_or_splitter_regression;
         Alcotest.test_case "resilience guard" `Quick test_ben_or_resilience_guard ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_ben_or_random_inputs_safe ]) ]
