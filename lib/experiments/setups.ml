module Strategy = Ba_adversary.Strategy

type protocol_kind =
  | Alg3 of { alpha : float; coin_round : [ `Piggyback | `Extra ] }
  | Las_vegas of { alpha : float }
  | Chor_coan
  | Chor_coan_lv
  | Rabin
  | Local_coin
  | Phase_king
  | Eig
  | Ks_broadcast
  | Ks_sample of { degree : int }
  | Word_budget of { degree : int }

type adversary_kind =
  | Silent
  | Static_crash
  | Staggered_crash of int
  | Committee_killer
  | Crash_committee_killer
  | Equivocator
  | Lone_finisher of int
  | Random_noise of float
  | Ir of Ba_adversary.Strategy.genome

type input_pattern = Unanimous of int | Split | Near_threshold

let protocol_name = function
  | Alg3 { coin_round = `Piggyback; _ } -> "alg3"
  | Alg3 { coin_round = `Extra; _ } -> "alg3-extra-round"
  | Las_vegas _ -> "las-vegas"
  | Chor_coan -> "chor-coan"
  | Chor_coan_lv -> "chor-coan-lv"
  | Rabin -> "rabin"
  | Local_coin -> "local-coin"
  | Phase_king -> "phase-king"
  | Eig -> "eig"
  | Ks_broadcast -> "ks-broadcast"
  | Ks_sample _ -> "ks-sample"
  | Word_budget _ -> "word-budget"

let adversary_name = function
  | Silent -> "silent"
  | Static_crash -> "static-crash"
  | Staggered_crash k -> Printf.sprintf "staggered-crash-%d" k
  | Committee_killer -> "committee-killer"
  | Crash_committee_killer -> "crash-committee-killer"
  | Equivocator -> "equivocator"
  | Lone_finisher v -> Printf.sprintf "lone-finisher-%d" v
  | Random_noise _ -> "random-noise"
  | Ir g -> Strategy.name g

let inputs pattern ~n ~t =
  match pattern with
  | Unanimous b ->
      if b <> 0 && b <> 1 then invalid_arg "Setups.inputs: unanimous value must be 0/1";
      Array.make n b
  | Split -> Array.init n (fun i -> i mod 2)
  | Near_threshold ->
      (* Majority-for-1 of size n - 2t + (t+1)/2: above the t+1 floor, below
         the n-t ceiling, so round-1 decisions are adversary-controlled. *)
      let ones = min (n - t - 1) (n - (2 * t) + ((t + 1) / 2)) in
      Array.init n (fun i -> if i < ones then 1 else 0)

(* Each CLI vocabulary is one (name, kind) table; its parser and its name
   list both read it. *)
let parse ~what table s =
  match List.assoc_opt s table with
  | Some kind -> Ok kind
  | None ->
      Error
        (Printf.sprintf "unknown %s %S; expected one of: %s" what s
           (String.concat ", " (List.map fst table)))

let protocol_table =
  [ ("alg3", Alg3 { alpha = 2.0; coin_round = `Piggyback });
    ("alg3-extra-round", Alg3 { alpha = 2.0; coin_round = `Extra });
    ("las-vegas", Las_vegas { alpha = 2.0 }); ("chor-coan", Chor_coan);
    ("chor-coan-lv", Chor_coan_lv); ("rabin", Rabin); ("local-coin", Local_coin);
    ("phase-king", Phase_king); ("eig", Eig); ("ks-broadcast", Ks_broadcast);
    ("ks-sample", Ks_sample { degree = 0 }); ("word-budget", Word_budget { degree = 0 }) ]

let adversary_table =
  [ ("silent", Silent); ("static-crash", Static_crash); ("staggered-crash", Staggered_crash 1);
    ("committee-killer", Committee_killer); ("crash-committee-killer", Crash_committee_killer);
    ("equivocator", Equivocator); ("lone-finisher", Lone_finisher 0);
    ("random-noise", Random_noise 0.3) ]

let all_protocol_names = List.map fst protocol_table

let all_adversary_names = List.map fst adversary_table

let parse_protocol = parse ~what:"protocol" protocol_table

let parse_adversary = parse ~what:"adversary" adversary_table

type fault_spec = {
  fs_drop : float;
  fs_duplicate : float;
  fs_corrupt : float;
  fs_silences : Ba_sim.Faults.silence list;
}

let no_faults = { fs_drop = 0.0; fs_duplicate = 0.0; fs_corrupt = 0.0; fs_silences = [] }

type run = {
  run_protocol : string;
  run_adversary : string;
  rounds_per_phase : int option;
  default_max_rounds : int;
  exec :
    ?max_rounds:int ->
    ?congest_limit_bits:int ->
    record:bool ->
    inputs:int array ->
    seed:int64 ->
    unit ->
    Ba_sim.Engine.outcome;
}

(* The one mapping from a named adversary kind to its strategy genome. *)
let genome = function
  | Silent -> Strategy.silent_point
  | Static_crash -> Strategy.static_crash_point
  | Staggered_crash per_round -> Strategy.staggered_crash_point ~per_round
  | Committee_killer -> Strategy.committee_killer_point
  | Crash_committee_killer -> Strategy.crash_committee_killer_point
  | Equivocator -> Strategy.equivocator_point
  | Lone_finisher target -> Strategy.lone_finisher_point ~target
  | Random_noise corrupt_prob -> Strategy.random_noise_point ~corrupt_prob
  | Ir g -> g

(* What a protocol's messages let an adversary say: skeleton messages,
   judged against the protocol's designated set, or nothing it could
   forge. *)
type (_, _) family =
  | Skeleton : {
      config : Ba_core.Skeleton.config;
      designated : phase:int -> int -> bool;
    }
      -> (Ba_core.Skeleton.state, Ba_core.Skeleton.msg) family
  | Opaque : ('s, 'm) family

let adversary_rng seed = Ba_prng.Rng.create (Ba_prng.Splitmix64.mix (Int64.lognot seed))

(* The one lowering rule: a crash genome forges nothing, so it lowers
   message-agnostically and reaches every protocol; any other tactic needs
   skeleton messages. *)
let lower : type s m. (s, m) family -> adversary_kind -> seed:int64 -> (s, m) Ba_sim.Adversary.t =
 fun family kind ~seed ->
  let g = genome kind and name = adversary_name kind and rng = adversary_rng seed in
  match (g.Strategy.g_tactic, family) with
  | Strategy.Crash, _ -> Strategy.to_generic ~name ~rng g
  | _, Skeleton { config; designated } -> Strategy.to_skeleton ~name ~rng g ~config ~designated
  | _, Opaque ->
      invalid_arg
        (Printf.sprintf "Setups.make: adversary %s needs a skeleton-message protocol" name)

(* Benign payload corruption for skeleton messages: flip the vote, the
   decided flag, or a piggybacked coin flip — the message-level "bit flips"
   that actually influence the phase machine's thresholds. *)
let mutate_skeleton rng (m : Ba_core.Skeleton.msg) =
  match Ba_prng.Rng.int rng 3 with
  | 0 -> { m with m_val = 1 - m.m_val }
  | 1 -> { m with m_decided = not m.m_decided }
  | _ -> (
      match m.m_flip with
      | Some f -> { m with m_flip = Some (-f) }
      | None -> { m with m_val = 1 - m.m_val })

let mutator : type s m. (s, m) family -> (Ba_prng.Rng.t -> m -> m) option = function
  | Skeleton _ -> Some mutate_skeleton
  | Opaque -> None

(* The fault plan of a spec. [mutate] realizes payload corruption, so a
   protocol without one rejects [fs_corrupt > 0]. *)
let fault_plan ?mutate = function
  | None -> None
  | Some s ->
      if s.fs_corrupt > 0.0 && Option.is_none mutate then
        invalid_arg "Setups.make: corrupt faults need a skeleton-message protocol";
      Some
        (Ba_sim.Faults.make ~drop:s.fs_drop ~duplicate:s.fs_duplicate ~corrupt:s.fs_corrupt
           ?mutate:(if s.fs_corrupt > 0.0 then mutate else None)
           ~silences:s.fs_silences ())

(* One protocol instance for one run seed. *)
type ('s, 'm) instance = {
  protocol : ('s, 'm) Ba_sim.Protocol.t;
  family : ('s, 'm) family;
  round_bound : int;
  rounds_per_phase : int option;
}

let skeleton ~designated ~round_bound protocol config =
  { protocol;
    family = Skeleton { config; designated };
    round_bound;
    rounds_per_phase = Some (Ba_core.Skeleton.rounds_per_phase config) }

let opaque ~round_bound ?rounds_per_phase protocol =
  { protocol; family = Opaque; round_bound; rounds_per_phase }

let no_flipper ~phase:_ _ = false

(* The one synchronous builder. [instance] is called once per exec (Rabin's
   dealer stream differs per seed) and once up front with seed 0, which
   names the run and rejects an incompatible adversary at make time. The
   corruption cap lets E18/E19 split the fault budget t between the
   Byzantine adversary and the injected benign faults. *)
let sync_run ?(topology = Ba_sim.Topology.Dense) ~faults ~cap ~adversary ~n ~t instance =
  let probe = instance ~seed:0L in
  ignore (lower probe.family adversary ~seed:0L);
  let faults = fault_plan ?mutate:(mutator probe.family) faults in
  { run_protocol = probe.protocol.Ba_sim.Protocol.name;
    run_adversary = adversary_name adversary;
    rounds_per_phase = probe.rounds_per_phase;
    default_max_rounds = probe.round_bound;
    exec =
      (fun ?max_rounds ?congest_limit_bits ~record ~inputs ~seed () ->
        let max_rounds = Option.value max_rounds ~default:probe.round_bound in
        let { protocol; family; _ } = instance ~seed in
        let adv = lower family adversary ~seed in
        let adv =
          match cap with None -> adv | Some limit -> Ba_adversary.Generic.capped ~limit adv
        in
        Ba_sim.Engine.run ~max_rounds ?congest_limit_bits ?faults ~topology ~record ~protocol
          ~adversary:adv ~n ~t ~inputs ~seed ()) }

let make_impl ~faults ~cap ~protocol ~adversary ~n ~t =
  let run ?topology instance = sync_run ?topology ~faults ~cap ~adversary ~n ~t instance in
  let fixed inst ~seed:_ = inst in
  let sampled degree =
    let degree = if degree = 0 then Ba_sparse.Ks_agreement.default_degree ~n else degree in
    (degree, Ba_sim.Topology.Sampled { degree })
  in
  match protocol with
  | Alg3 { alpha; coin_round } ->
      let inst = Ba_core.Agreement.make ~alpha ~coin_round ~n ~t () in
      run
        (fixed
           (skeleton inst.protocol inst.config
              ~designated:(fun ~phase v -> Ba_core.Agreement.is_flipper inst ~phase v)
              ~round_bound:(Ba_core.Agreement.round_bound inst)))
  | Las_vegas { alpha } ->
      let inst = Ba_core.Las_vegas.make ~alpha ~n ~t () in
      let designated ~phase v =
        Ba_core.Committee.is_member inst.committees
          (Ba_core.Committee.for_phase inst.committees ~phase)
          v
      in
      (* Las Vegas has no phase cap: give it a generous adversarial bound. *)
      let round_bound =
        64 + (8 * int_of_float (ceil (Ba_core.Las_vegas.expected_round_bound inst)))
      in
      run (fixed (skeleton inst.protocol inst.config ~designated ~round_bound))
  | Chor_coan | Chor_coan_lv ->
      let cycle = protocol = Chor_coan_lv in
      let inst = Ba_baselines.Chor_coan.make ~cycle ~n ~t () in
      let round_bound =
        let base = Ba_baselines.Chor_coan.round_bound inst in
        if cycle then 64 + (8 * base) else base
      in
      run
        (fixed
           (skeleton inst.protocol inst.config ~round_bound
              ~designated:(fun ~phase v -> Ba_baselines.Chor_coan.designated inst ~phase v)))
  | Rabin ->
      (* Dealer seed must differ per run seed but be shared by all nodes:
         a fresh instance is built for every exec. *)
      run (fun ~seed ->
          let dealer_seed = Ba_prng.Splitmix64.mix (Int64.add seed 0x5EEDL) in
          let inst = Ba_baselines.Rabin.make ~n ~t ~dealer_seed () in
          skeleton inst.protocol inst.config ~designated:no_flipper
            ~round_bound:(Ba_baselines.Rabin.round_bound inst))
  | Local_coin ->
      let inst = Ba_baselines.Local_coin.make ~n ~t () in
      run
        (fixed
           (skeleton inst.protocol inst.config ~designated:no_flipper
              ~round_bound:(Ba_sim.Protocol.default_round_cap ~n)))
  | Phase_king ->
      let protocol = Ba_baselines.Phase_king.make ~n ~t in
      run
        (fixed
           (opaque protocol ~round_bound:(Ba_baselines.Phase_king.rounds ~t + 2)
              ~rounds_per_phase:2))
  | Eig ->
      if n > 10 then invalid_arg "Setups.make: eig is exponential; use n <= 10";
      run (fixed (opaque Ba_baselines.Eig.protocol ~round_bound:(Ba_baselines.Eig.rounds ~t + 1)))
  | Ks_broadcast ->
      (* Dense control arm: same dynamics as ks-sample with a full-degree
         sample on the dense plane. *)
      let inst = Ba_sparse.Ks_agreement.make ~name:"ks-broadcast" ~degree:(n - 1) ~n ~t () in
      run (fixed (opaque inst.protocol ~round_bound:inst.round_bound))
  | Ks_sample { degree } ->
      let degree, topology = sampled degree in
      let inst = Ba_sparse.Ks_agreement.make ~degree ~n ~t () in
      run ~topology (fixed (opaque inst.protocol ~round_bound:inst.round_bound))
  | Word_budget { degree } ->
      let degree, topology = sampled degree in
      let inst = Ba_sparse.Word_budget.make ~degree ~n ~t () in
      run ~topology (fixed (opaque inst.protocol ~round_bound:inst.round_bound))

let make ~protocol ~adversary ~n ~t = make_impl ~faults:None ~cap:None ~protocol ~adversary ~n ~t

let make_faulty ~faults ~protocol ~adversary ~n ~t =
  make_impl ~faults:(Some faults) ~cap:None ~protocol ~adversary ~n ~t

let make_capped ~faults ~limit ~protocol ~adversary ~n ~t =
  if limit < 0 then invalid_arg "Setups.make_capped: limit must be >= 0";
  make_impl ~faults:(Some faults) ~cap:(Some limit) ~protocol ~adversary ~n ~t

(* ------------------------------------------------------------------ *)
(* Asynchronous setups (unified run substrate)                         *)
(* ------------------------------------------------------------------ *)

type async_protocol_kind = Async_ben_or | Async_bracha of { broadcaster : int }

type async_scheduler_kind =
  | Fifo_sched
  | Random_sched
  | Delayer_sched of int list
  | Balancer_sched
  | Splitter_sched

let async_protocol_name = function
  | Async_ben_or -> "ben-or"
  | Async_bracha { broadcaster } -> Printf.sprintf "rbc-b%d" broadcaster

let async_scheduler_name = function
  | Fifo_sched -> "fifo"
  | Random_sched -> "random"
  | Delayer_sched _ -> "delayer"
  | Balancer_sched -> "balancer"
  | Splitter_sched -> "splitter"

let async_protocol_table = [ ("ben-or", Async_ben_or); ("rbc", Async_bracha { broadcaster = 0 }) ]

let async_scheduler_table =
  [ ("fifo", Fifo_sched); ("random", Random_sched); ("delayer", Delayer_sched [ 0 ]);
    ("balancer", Balancer_sched); ("splitter", Splitter_sched) ]

let all_async_protocol_names = List.map fst async_protocol_table

let all_async_scheduler_names = List.map fst async_scheduler_table

let parse_async_protocol = parse ~what:"async protocol" async_protocol_table

let parse_async_scheduler = parse ~what:"async scheduler" async_scheduler_table

(* The one mapping from a scheduler kind to its strategy genome. *)
let scheduler_genome = function
  | Fifo_sched -> Strategy.base
  | Random_sched -> Strategy.async_uniform_point
  | Delayer_sched victims -> Strategy.async_delayer_point ~victims
  | Balancer_sched -> Strategy.async_balancer_point
  | Splitter_sched -> Strategy.async_splitter_point

(* Benign payload corruption for Ben-Or messages, through the classify /
   mk_* introspection surface: flip the vote (R/P/D); a [?] P-vote becomes
   a random definite vote. *)
let mutate_ben_or rng m =
  match Ba_async.Ben_or_async.classify m with
  | `R (round, v) -> Ba_async.Ben_or_async.mk_r ~round ~v:(1 - v)
  | `P (round, v) ->
      let v = if v = 2 then Ba_prng.Rng.int rng 2 else 1 - v in
      Ba_async.Ben_or_async.mk_p ~round ~v
  | `D v -> Ba_async.Ben_or_async.mk_d ~v:(1 - v)

let mutate_bracha _rng (m : Ba_async.Bracha_rbc.msg) =
  match m with
  | Ba_async.Bracha_rbc.Init v -> Ba_async.Bracha_rbc.Init (1 - v)
  | Ba_async.Bracha_rbc.Echo v -> Ba_async.Bracha_rbc.Echo (1 - v)
  | Ba_async.Bracha_rbc.Ready v -> Ba_async.Bracha_rbc.Ready (1 - v)

type async_run = {
  arun_protocol : string;
  arun_scheduler : string;
  arun_exec :
    ?max_steps:int ->
    ?max_delay:int ->
    ?trace:Ba_sim.Run.trace ->
    inputs:int array ->
    seed:int64 ->
    unit ->
    Ba_sim.Run.outcome;
}

(* The scheduler RNG derivation: one stream per exec call, mixed from the
   run seed — the derivation E17 has always used, so its trials replay
   byte-identically through this path. *)
let scheduler_rng seed = Ba_prng.Rng.create (Ba_prng.Splitmix64.mix seed)

let make_async ?faults ~protocol ~scheduler ~n ~t () =
  (match scheduler with
  | Delayer_sched victims ->
      List.iter
        (fun v ->
          if v < 0 || v >= n then
            invalid_arg (Printf.sprintf "Setups.make_async: delayer victim %d outside [0,%d)" v n))
        victims
  | (Balancer_sched | Splitter_sched) when protocol <> Async_ben_or ->
      invalid_arg "Setups.make_async: balancer/splitter schedulers target ben-or"
  | Fifo_sched | Random_sched | Balancer_sched | Splitter_sched -> ());
  let genome = scheduler_genome scheduler in
  let build protocol_impl ~mutate ~lower =
    let plan = fault_plan ~mutate faults in
    { arun_protocol = async_protocol_name protocol;
      arun_scheduler = async_scheduler_name scheduler;
      arun_exec =
        (fun ?max_steps ?max_delay ?trace ~inputs ~seed () ->
          let adversary = lower ~rng:(scheduler_rng seed) genome in
          Ba_async.Async_engine.to_run
            (Ba_async.Async_engine.run ?max_steps ?max_delay ?faults:plan ?trace
               ~protocol:protocol_impl ~adversary ~n ~t ~inputs ~seed ())) }
  in
  match protocol with
  | Async_ben_or ->
      build (Ba_async.Ben_or_async.make ~n ~t) ~mutate:mutate_ben_or
        ~lower:(fun ~rng g -> Ba_async.Async_adv.of_strategy_ben_or ~rng g)
  | Async_bracha { broadcaster } ->
      if broadcaster < 0 || broadcaster >= n then
        invalid_arg (Printf.sprintf "Setups.make_async: broadcaster %d outside [0,%d)" broadcaster n);
      build (Ba_async.Bracha_rbc.make ~broadcaster) ~mutate:mutate_bracha
        ~lower:(fun ~rng g -> Ba_async.Async_adv.of_strategy ~rng g)
