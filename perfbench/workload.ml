(* The six benchmark workloads, wired directly through the public
   constructors and [Engine.run] / [Async_engine.run].

   Each workload's [setup] builds everything a trial needs (protocol
   instances, inputs, fault and topology plans); its [run] performs one
   trial and returns the outcome of each engine call it made: one call,
   except on async-mixed, whose trial runs each scheduler family once.
   [via_setups] runs the same trial through [Ba_experiments.Setups], so a
   traced run can check that the direct wiring measures what the
   experiments run. *)

module Engine = Ba_sim.Engine
module Async = Ba_async.Async_engine
module Checker = Ba_trace.Checker
module Setups = Ba_experiments.Setups

type instance = {
  run : ?tracer:Tracer.t -> trial:int -> int64 -> Ba_sim.Run.outcome list;
  via_setups : trial:int -> int64 -> Ba_sim.Run.outcome list;
}

type t = {
  name : string;
  warmups : int;  (** untimed warm-up trials per set-up *)
  audit : Ba_sim.Run.outcome -> Checker.violation list;
  setup : unit -> instance;
}

let safety o = Checker.agreement_run o @ Checker.validity_run o @ Checker.corruption_budget_run o

(* One synchronous engine call, wrapped for tracing when asked. *)
let sync ?tracer ?faults ?topology ~max_rounds ~protocol ~adversary ~n ~t ~inputs seed =
  match tracer with
  | None ->
      [ Engine.to_run
          (Engine.run ~max_rounds ?faults ?topology ~protocol ~adversary ~n ~t ~inputs ~seed ()) ]
  | Some tr ->
      let protocol = Tracer.sync_protocol tr protocol in
      let adversary = Tracer.sync_adversary tr adversary in
      Tracer.start tr;
      let o =
        Engine.run ~max_rounds ?faults ?topology ~trace:(Tracer.tick tr) ~protocol ~adversary ~n ~t
          ~inputs ~seed ()
      in
      Tracer.stop tr;
      [ Engine.to_run o ]

let via_sync (run : Setups.run) ?max_rounds ~inputs seed =
  [ Engine.to_run (run.exec ?max_rounds ~record:false ~inputs ~seed ()) ]

(* The adversary stream Setups derives from a run seed. *)
let adversary_rng seed = Ba_prng.Rng.create (Ba_prng.Splitmix64.mix (Int64.lognot seed))

(* Las Vegas has no phase cap; Setups gives it this adversarial bound. *)
let las_vegas_bound inst =
  64 + (8 * int_of_float (ceil (Ba_core.Las_vegas.expected_round_bound inst)))

let las_vegas = Setups.Las_vegas { alpha = 2.0 }

let dense_benign =
  { name = "dense-benign";
    warmups = 100;
    audit = Checker.standard_run ~allow_faults:false;
    setup =
      (fun () ->
        let n = 1024 in
        let t = Ba_core.Params.max_tolerated n in
        let inst = Ba_core.Las_vegas.make ~alpha:2.0 ~n ~t () in
        let max_rounds = las_vegas_bound inst in
        let inputs = Setups.inputs Setups.Split ~n ~t in
        { run =
            (fun ?tracer ~trial:_ seed ->
              sync ?tracer ~max_rounds ~protocol:inst.protocol
                ~adversary:Ba_adversary.Generic.silent ~n ~t ~inputs seed);
          via_setups =
            (fun ~trial:_ seed ->
              via_sync
                (Setups.make ~protocol:las_vegas ~adversary:Setups.Silent ~n ~t)
                ~inputs seed) }) }

let dense_byzantine =
  { name = "dense-byzantine";
    warmups = 4;
    audit = Checker.standard_run ~allow_faults:false;
    setup =
      (fun () ->
        let n = 128 and t = 42 in
        let inst = Ba_core.Las_vegas.make ~alpha:2.0 ~n ~t () in
        let max_rounds = las_vegas_bound inst in
        let designated ~phase v =
          Ba_core.Committee.is_member inst.committees
            (Ba_core.Committee.for_phase inst.committees ~phase)
            v
        in
        let inputs = Setups.inputs Setups.Split ~n ~t in
        { run =
            (fun ?tracer ~trial:_ seed ->
              let adversary =
                Ba_adversary.Skeleton_adv.committee_killer ~config:inst.config ~designated
              in
              sync ?tracer ~max_rounds ~protocol:inst.protocol ~adversary ~n ~t ~inputs seed);
          via_setups =
            (fun ~trial:_ seed ->
              via_sync
                (Setups.make ~protocol:las_vegas ~adversary:Setups.Committee_killer ~n ~t)
                ~inputs seed) }) }

(* E18's "p=0.05+dup" arm: the adversary keeps the budget left after the
   expected number of fault-touched senders per round. Trial k runs Las
   Vegas when k is even, Chor-Coan-LV when odd. *)
let dense_faults =
  { name = "dense-faults";
    warmups = 10;
    audit = safety;
    setup =
      (fun () ->
        let n = 40 in
        let t = Ba_core.Params.max_tolerated n in
        let limit = t - int_of_float (ceil (0.05 *. float_of_int n)) in
        let faults = Ba_sim.Faults.make ~drop:0.05 ~duplicate:0.05 () in
        let spec = { Setups.no_faults with fs_drop = 0.05; fs_duplicate = 0.05 } in
        let lv = Ba_core.Las_vegas.make ~alpha:2.0 ~n ~t () in
        let cc = Ba_baselines.Chor_coan.make ~cycle:true ~n ~t () in
        let arms =
          [| (lv.protocol, las_vegas_bound lv, las_vegas);
             (cc.protocol, 64 + (8 * Ba_baselines.Chor_coan.round_bound cc), Setups.Chor_coan_lv) |]
        in
        let inputs = Setups.inputs Setups.Split ~n ~t in
        { run =
            (fun ?tracer ~trial seed ->
              let protocol, max_rounds, _ = arms.(trial mod 2) in
              let adversary =
                Ba_adversary.Generic.capped ~limit
                  (Ba_adversary.Generic.static_crash ~rng:(adversary_rng seed))
              in
              sync ?tracer ~faults ~max_rounds ~protocol ~adversary ~n ~t ~inputs seed);
          via_setups =
            (fun ~trial seed ->
              let _, _, protocol = arms.(trial mod 2) in
              via_sync
                (Setups.make_capped ~faults:spec ~limit ~protocol ~adversary:Setups.Static_crash ~n
                   ~t)
                ~inputs seed) }) }

let sampled ~name ~warmups ~audit ~n ~degree ~max_rounds =
  { name;
    warmups;
    audit;
    setup =
      (fun () ->
        let inst = Ba_sparse.Ks_agreement.make ~degree ~n ~t:0 () in
        let max_rounds = Option.value max_rounds ~default:inst.round_bound in
        let topology = Ba_sim.Topology.Sampled { degree } in
        let inputs = Setups.inputs Setups.Split ~n ~t:0 in
        { run =
            (fun ?tracer ~trial:_ seed ->
              sync ?tracer ~topology ~max_rounds ~protocol:inst.protocol
                ~adversary:Ba_adversary.Generic.silent ~n ~t:0 ~inputs seed);
          via_setups =
            (fun ~trial:_ seed ->
              via_sync
                (Setups.make ~protocol:(Setups.Ks_sample { degree }) ~adversary:Setups.Silent ~n
                   ~t:0)
                ~max_rounds ~inputs seed) }) }

(* E22's shape: degree ceil(sqrt n), run to decision. *)
let sparse_sqrt =
  sampled ~name:"sparse-sqrt" ~warmups:1 ~audit:(Checker.standard_run ~allow_faults:false) ~n:8192
    ~degree:(Ba_sparse.Ks_agreement.default_degree ~n:8192)
    ~max_rounds:None

(* bench/main.ml's plane/sparse-round-n1M shape: one sampled round. *)
let sparse_n1m =
  sampled ~name:"sparse-n1M" ~warmups:1 ~audit:safety ~n:1_000_000 ~degree:4 ~max_rounds:(Some 1)

(* A trial runs Ben-Or once per async execution family on the trial's
   seed: the batched Fifo_pick path, the Uniform_pick serial fast path,
   and the same random scheduler forced through the opaque view/act loop
   by [opaque_of]. The last two must agree byte for byte, so both check
   against Setups' random scheduler. Near-threshold inputs (12 ones,
   4 zeros) let every run decide within a few rounds; split inputs make
   the round count geometric, and a few runs of tens of thousands of steps
   would then set the trial-time median and the peak heap. *)
let async_mixed =
  { name = "async-mixed";
    warmups = 30;
    audit = Checker.standard_run ~allow_faults:false;
    setup =
      (fun () ->
        let n = 16 and t = 3 in
        let protocol = Ba_async.Ben_or_async.make ~n ~t in
        let inputs = Setups.inputs Setups.Near_threshold ~n ~t in
        let random rng = Ba_async.Async_adv.random_scheduler ~rng in
        let arms =
          [ (Setups.Fifo_sched, fun _ -> Async.fifo);
            (Setups.Random_sched, random);
            (Setups.Random_sched, fun rng -> Async.opaque_of (random rng)) ]
        in
        let once ?tracer seed make =
          (* the scheduler stream Setups derives from the run seed *)
          let adversary = make (Ba_prng.Rng.create (Ba_prng.Splitmix64.mix seed)) in
          match tracer with
          | None -> Async.to_run (Async.run ~protocol ~adversary ~n ~t ~inputs ~seed ())
          | Some tr ->
              let protocol = Tracer.async_protocol tr protocol in
              let adversary = Tracer.async_adversary tr adversary in
              Tracer.start tr;
              let o = Async.run ~protocol ~adversary ~n ~t ~inputs ~seed () in
              Tracer.stop tr;
              Async.to_run o
        in
        { run =
            (fun ?tracer ~trial:_ seed -> List.map (fun (_, make) -> once ?tracer seed make) arms);
          via_setups =
            (fun ~trial:_ seed ->
              List.map
                (fun (scheduler, _) ->
                  (Setups.make_async ~protocol:Setups.Async_ben_or ~scheduler ~n ~t ()).arun_exec
                    ~inputs ~seed ())
                arms) }) }

let all = [ dense_benign; dense_byzantine; dense_faults; sparse_sqrt; sparse_n1m; async_mixed ]

(* 64-bit outcome digest: span, outputs, corrupted set and the metered
   message, bit, word and fault-event counts. *)
let digest (o : Ba_sim.Run.outcome) =
  let h = ref 0x2545F4914F6CDD1DL in
  let add x = h := Ba_prng.Splitmix64.mix (Int64.add (Int64.mul !h 31L) (Int64.of_int x)) in
  (match o.span with Ba_sim.Run.Rounds r -> add 1; add r | Ba_sim.Run.Steps s -> add 2; add s);
  Array.iter (function None -> add (-1) | Some b -> add b) o.outputs;
  Array.iter (fun c -> add (if c then 1 else 0)) o.corrupted;
  let m = o.metrics in
  List.iter add
    [ Ba_sim.Metrics.messages m; Ba_sim.Metrics.bits m; Ba_sim.Metrics.words m;
      Ba_sim.Metrics.fault_events m ];
  !h

let combine acc d = Ba_prng.Splitmix64.mix (Int64.logxor (Int64.mul acc 31L) d)

let digest_all os = List.fold_left (fun acc o -> combine acc (digest o)) 0L os

(* Timed trial k's seed is a pure function of (seed, workload, k). Warm-ups
   replay a fixed trial set whatever the seed, so set-up does the same work
   in every run. *)
let trial_seed ~seed ~workload k =
  let base =
    String.fold_left
      (fun acc c -> Ba_prng.Splitmix64.mix (Int64.add acc (Int64.of_int (Char.code c))))
      seed workload
  in
  Ba_prng.Splitmix64.mix (Int64.add base (Int64.of_int k))

let warmup_seed ~workload k = trial_seed ~seed:0L ~workload:("warm-up " ^ workload) k
